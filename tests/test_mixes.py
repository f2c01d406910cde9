"""Multiprogram mixes (the Figure 5 workload)."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.mixes import FIGURE5_BENCHMARKS, MultiprogramMix, figure5_mix
from repro.workloads.spec import spec_workload


def test_figure5_mix_members():
    mix = figure5_mix()
    assert len(mix.members) == 8
    assert {w.name for w in mix.members} == set(FIGURE5_BENCHMARKS)


def test_mix_swing_is_decorrelated_mean():
    mix = figure5_mix()
    swings = [w.resonant_swing for w in mix.members]
    assert mix.resonant_swing == pytest.approx(sum(swings) / len(swings))


def test_mix_swing_below_worst_member():
    mix = figure5_mix()
    assert mix.resonant_swing < max(w.resonant_swing for w in mix.members)


def test_placement_one_per_core():
    mix = figure5_mix()
    placement = mix.placement()
    assert len(placement) == 8
    assert sorted(c.linear for c in placement) == list(range(8))


def test_per_pmd_vmin_ladder(ttt_chip):
    """The per-PMD constraints produce the paper's 915/900/885/875 rungs."""
    mix = figure5_mix()
    per_pmd = mix.per_pmd_vmin_mv(ttt_chip)
    assert set(per_pmd) == {0, 1, 2, 3}
    ordered = sorted(per_pmd.values(), reverse=True)
    targets = (915.0, 900.0, 885.0, 875.0)
    for value, target in zip(ordered, targets):
        assert target - 5.0 < value <= target


def test_per_pmd_vmin_lower_at_reduced_frequency(ttt_chip):
    mix = figure5_mix()
    fast = mix.per_pmd_vmin_mv(ttt_chip, freq_ghz=2.4)
    slow = mix.per_pmd_vmin_mv(ttt_chip, freq_ghz=1.2)
    for pmd in fast:
        assert slow[pmd] < fast[pmd]


def test_mix_name_lists_members():
    mix = MultiprogramMix.of([spec_workload("mcf"), spec_workload("milc")])
    assert mix.name == "mix(mcf+milc)"


def test_mix_size_bounds():
    with pytest.raises(WorkloadError):
        MultiprogramMix.of([])
    with pytest.raises(WorkloadError):
        MultiprogramMix.of([spec_workload("mcf")] * 9)
