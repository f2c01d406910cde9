"""The GA and ECC ablations (``run ablation-ga`` and ``run ablation-ecc``)."""

from dataclasses import replace

import pytest

from repro.experiments.ablations import (
    EccAblationResult,
    run_ecc_ablation,
    run_ga_ablation,
)


@pytest.fixture(scope="module")
def ecc():
    return run_ecc_ablation(seed=1)


def _swings(result):
    return (round(result.ga.resonant_swing, 3),
            round(result.random.resonant_swing, 3))


def test_ga_beats_random_search_at_equal_budget():
    fast = run_ga_ablation(seed=1, generations=8, population=16)
    assert fast.budget == 128
    assert _swings(fast) == (1.0, 0.265)
    assert fast.ga_wins
    full = run_ga_ablation(seed=1)
    assert full.budget == 782
    assert _swings(full) == (1.0, 0.525)
    assert full.ga_wins


def test_ga_ablation_identical_at_any_jobs():
    serial = run_ga_ablation(seed=3, generations=4, population=8)
    assert run_ga_ablation(seed=3, generations=4, population=8,
                           jobs=2) == serial


def test_ecc_sweep_counts(ecc):
    assert [p.temp_c for p in ecc.points] == [45, 50, 55, 60, 65, 70]
    assert [p.weak_cells for p in ecc.points] == \
        [123, 611, 2593, 9800, 34259, 110167]
    assert [p.scrub.corrected_words for p in ecc.points] == \
        [58, 296, 1317, 4895, 17139, 54942]
    assert [p.scrub.residual_word_errors for p in ecc.points] == \
        [0, 0, 0, 0, 0, 2]
    assert all(abs(p.held_c - p.temp_c) < 0.2 for p in ecc.points)
    assert ecc.shape_ok


def test_every_scheme_accounts_for_every_corrupted_word(ecc):
    for point in ecc.points:
        for scheme, counts in point.outcomes().items():
            assert sum(counts) == point.scrub.words_scanned, scheme
    at_60 = ecc.points[3].outcomes()
    assert at_60["parity"][0] == 0 and at_60["parity"][1] > 0
    assert at_60["secded"][1:] == (0, 0)


def test_shape_check_fails_when_secded_leaks_at_60(ecc):
    at_60 = ecc.points[3]
    leaky = replace(at_60, scrub=replace(at_60.scrub, miscorrected_words=1))
    points = ecc.points[:3] + (leaky,) + ecc.points[4:]
    broken = replace(ecc, points=points)
    assert not broken.shape_ok and "FAILED" in broken.format()


def test_shape_check_fails_when_counts_fall(ecc):
    at_65 = replace(ecc.points[4], weak_cells=ecc.points[3].weak_cells - 1)
    points = ecc.points[:4] + (at_65,) + ecc.points[5:]
    assert not EccAblationResult(ecc.trefp_s, ecc.devices, points).shape_ok
