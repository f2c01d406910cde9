"""SoC topology invariants."""

import pytest

from repro.errors import TopologyError
from repro.soc.topology import (
    L1D_BYTES,
    L1I_BYTES,
    L2_BYTES_PER_PMD,
    L3_BYTES,
    CoreId,
)


def test_core_linear_roundtrip():
    for index in range(8):
        core = CoreId.from_linear(index)
        assert core.linear == index


def test_core_id_validation():
    with pytest.raises(TopologyError):
        CoreId(4, 0)
    with pytest.raises(TopologyError):
        CoreId(0, 2)
    with pytest.raises(TopologyError):
        CoreId.from_linear(8)


def test_cache_sizes_match_paper():
    assert L1I_BYTES == 32 * 1024
    assert L1D_BYTES == 32 * 1024
    assert L2_BYTES_PER_PMD == 256 * 1024
    assert L3_BYTES == 8 * 1024 * 1024
