"""Platform factory assembly."""

from repro.soc.corners import ProcessCorner
from repro.soc.xgene2 import (
    DEFAULT_DOMAIN_WATTS,
    build_platform,
    build_reference_chips,
)


def test_reference_chips_one_per_corner():
    chips = build_reference_chips(seed=1)
    assert set(chips) == set(ProcessCorner)
    for corner, chip in chips.items():
        assert chip.corner is corner
        assert chip.serial.endswith("-ref")


def test_reference_chips_have_exact_corner_offsets():
    chips = build_reference_chips(seed=1)
    for corner, chip in chips.items():
        from repro.soc.corners import CORNER_PARAMS
        from repro.soc.topology import CoreId
        expected = CORNER_PARAMS[corner].core_offsets_mv
        measured = tuple(chip.core_offset_mv(CoreId.from_linear(i))
                         for i in range(8))
        assert measured == expected


def test_domain_watts_override():
    platform = build_platform(ProcessCorner.TTT, seed=1,
                              domain_watts={"PMD": 20.0})
    assert platform.pmd_power.nominal_watts == 20.0
    assert platform.other_watts == DEFAULT_DOMAIN_WATTS["OTHER"]
