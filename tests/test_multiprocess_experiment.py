"""Extension experiment: single- vs multi-process Vmin."""

import pytest

from repro.experiments.multiprocess_vmin import run_multiprocess_study
from repro.soc.topology import NUM_CORES, CoreId


@pytest.fixture(scope="module")
def result():
    return run_multiprocess_study(seed=1, repetitions=3)


def test_covers_all_spec_programs(result):
    assert len(result.single_vmin_mv) == 10
    assert set(result.single_vmin_mv) == set(result.multi_vmin_mv)


def test_multiprocess_always_needs_more_voltage(result):
    for name, uplift in ((n, result.multi_vmin_mv[n] - result.single_vmin_mv[n])
                         for n in result.single_vmin_mv):
        assert 20.0 <= uplift <= 90.0, name


def test_uplift_has_two_components(result, ttt_chip):
    """The uplift combines the weakest-core offset and the alignment
    gain -- it must exceed the offset alone."""
    max_offset = max(ttt_chip.core_offset_mv(CoreId.from_linear(index))
                     for index in range(NUM_CORES))
    for name in ("milc", "bwaves"):
        uplift = result.multi_vmin_mv[name] - result.single_vmin_mv[name]
        assert uplift > max_offset


def test_heterogeneous_mix_decorrelates(result):
    assert result.hetero_mix_vmin_mv < result.worst_multi_mv
    assert result.decorrelation_gain_mv >= 20.0


def test_ordering_preserved_across_setups(result):
    single_order = sorted(result.single_vmin_mv, key=result.single_vmin_mv.get)
    multi_order = sorted(result.multi_vmin_mv, key=result.multi_vmin_mv.get)
    # The same programs anchor both ends.
    assert single_order[0] == multi_order[0] == "mcf"
    assert single_order[-1] == multi_order[-1] == "milc"


def test_format_renders(result):
    text = result.format()
    assert "x8" in text and "decorrelation" in text
