"""Chip behavioural model: oracle Vmin and sampled run outcomes."""


import numpy as np

from repro.cpu.outcomes import RunOutcome
from repro.soc.chip import (
    Chip,
    FAILURE_ONSET_BAND_MV,
    HARD_CRASH_DEPTH_MV,
)
from repro.soc.corners import ProcessCorner
from repro.soc.topology import CoreId


def test_reference_ttt_vmin_oracle(ttt_chip):
    core = ttt_chip.strongest_core()
    # milc (swing 0.595) on the most robust core: Figure 4's 885 mV bin.
    vmin = ttt_chip.vmin_mv(core, 0.595)
    assert 880.0 < vmin <= 885.0
    # mcf (swing 0.28): the 860 mV bin.
    vmin = ttt_chip.vmin_mv(core, 0.28)
    assert 855.0 < vmin <= 860.0


def test_vmin_monotonic_in_swing(ttt_chip):
    core = CoreId(0, 0)
    values = [ttt_chip.vmin_mv(core, s) for s in (0.1, 0.3, 0.5, 0.7, 1.0)]
    assert values == sorted(values)


def test_vmin_lower_at_lower_frequency(ttt_chip):
    core = CoreId(0, 0)
    assert ttt_chip.vmin_mv(core, 0.5, freq_ghz=1.2) < \
        ttt_chip.vmin_mv(core, 0.5, freq_ghz=2.4)


def test_strongest_core_is_lowest_offset(ttt_chip):
    strongest = ttt_chip.strongest_core()
    offsets = [ttt_chip.core_offset_mv(CoreId.from_linear(i)) for i in range(8)]
    assert ttt_chip.core_offset_mv(strongest) == min(offsets)


def test_weakest_cores_count_and_order(ttt_chip):
    weakest = ttt_chip.weakest_cores(2)
    assert len(weakest) == 2
    # Reference TTT part: the two weakest cores live on PMD 0.
    assert all(core.pmd == 0 for core in weakest)


def test_observe_run_safe_above_vmin(ttt_chip):
    core = CoreId(0, 0)
    vmin = ttt_chip.vmin_mv(core, 0.4)
    outcome = ttt_chip.observe_run(core, 0.4, vmin + FAILURE_ONSET_BAND_MV + 5)
    assert outcome is RunOutcome.CORRECT


def test_observe_run_fails_below_vmin(ttt_chip):
    core = CoreId(0, 0)
    vmin = ttt_chip.vmin_mv(core, 0.4)
    rng = np.random.default_rng(9)
    outcomes = {ttt_chip.observe_run(core, 0.4, vmin - 5.0, rng=rng)
                for _ in range(50)}
    assert all(not o.is_safe for o in outcomes)


def test_observe_run_deep_violation_crashes_or_hangs(ttt_chip):
    core = CoreId(0, 0)
    vmin = ttt_chip.vmin_mv(core, 0.4)
    rng = np.random.default_rng(10)
    outcomes = {ttt_chip.observe_run(core, 0.4,
                                     vmin - HARD_CRASH_DEPTH_MV - 5, rng=rng)
                for _ in range(50)}
    assert outcomes <= {RunOutcome.CRASH, RunOutcome.HANG}


def test_observe_run_onset_band_only_ce(ttt_chip):
    core = CoreId(0, 0)
    vmin = ttt_chip.vmin_mv(core, 0.4)
    rng = np.random.default_rng(11)
    outcomes = {ttt_chip.observe_run(core, 0.4, vmin + 1.0, rng=rng)
                for _ in range(200)}
    assert outcomes <= {RunOutcome.CORRECT, RunOutcome.CORRECTED_ERROR}
    assert RunOutcome.CORRECTED_ERROR in outcomes  # close to the cliff


def test_jitterless_chip_reproducible():
    a = Chip(ProcessCorner.TTT, seed=5, jitter_sigma_mv=0.0)
    b = Chip(ProcessCorner.TTT, seed=6, jitter_sigma_mv=0.0)
    core = CoreId(2, 1)
    assert a.vmin_mv(core, 0.5) == b.vmin_mv(core, 0.5)


def test_jittered_chips_differ_but_stay_close():
    a = Chip(ProcessCorner.TTT, seed=5, serial="TTT-a")
    b = Chip(ProcessCorner.TTT, seed=6, serial="TTT-b")
    core = CoreId(2, 1)
    va, vb = a.vmin_mv(core, 0.5), b.vmin_mv(core, 0.5)
    assert va != vb
    assert abs(va - vb) < 6.0  # same corner: only manufacturing noise apart


def test_chip_oracle_is_stable(ttt_chip):
    core = CoreId(1, 0)
    assert ttt_chip.vmin_mv(core, 0.44) == ttt_chip.vmin_mv(core, 0.44)
