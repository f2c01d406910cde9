"""Homogeneous (multi-process) mixes: copies of one program."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.mixes import HomogeneousMix
from repro.workloads.spec import spec_workload


def test_single_copy_equals_program():
    mix = HomogeneousMix(spec_workload("milc"), copies=1)
    assert mix.resonant_swing == spec_workload("milc").resonant_swing


def test_swing_grows_with_copies():
    swings = [HomogeneousMix(spec_workload("milc"), copies=n).resonant_swing
              for n in range(1, 9)]
    assert swings == sorted(swings)
    assert swings[-1] > swings[0]


def test_swing_capped_at_one():
    mix = HomogeneousMix(spec_workload("milc"), copies=8)
    assert mix.resonant_swing <= 1.0


def test_multiprocess_vmin_stays_below_virus(ttt_chip):
    """Even 8 aligned copies stay short of the dI/dt virus (swing 1.0)."""
    full = HomogeneousMix(spec_workload("milc"), copies=8)
    core = ttt_chip.strongest_core()
    virus_vmin = ttt_chip.vmin_mv(core, 1.0)
    assert ttt_chip.vmin_mv(core, full.resonant_swing) < virus_vmin


def test_name():
    assert HomogeneousMix(spec_workload("mcf"), copies=4).name == "mcfx4"


def test_copy_bounds():
    with pytest.raises(WorkloadError):
        HomogeneousMix(spec_workload("mcf"), copies=0)
    with pytest.raises(WorkloadError):
        HomogeneousMix(spec_workload("mcf"), copies=9)
