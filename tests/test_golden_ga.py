"""Golden digests of the EM-guided virus search (Figures 6 and 7).

The GA arms of :func:`~repro.experiments.run_figure6` (one search on the
TTT part) and :func:`~repro.experiments.run_figure7` (one search per
reference chip) are rebuilt here from the drivers' own task recipe and
run through :func:`~repro.viruses.didt.didt_search_unit`. The sha256 of
the ``repr`` of every evolved virus (loop, EM amplitude, swing, droop,
generations, evaluations) together with its GA history is pinned, so
any drift in the search -- one selection flipped by one ulp of fitness
-- fails here, not in a figure's shape check.

The digests were recorded with numpy 2.4 on OpenBLAS (x86-64). They are
the exact float results of that numerics stack; a different BLAS kernel
may legitimately round the smoothing matmul differently.
"""

import hashlib

import pytest

from repro.core.parallel import resolve_seed
from repro.rand import derive_seed
from repro.soc.corners import ProcessCorner
from repro.viruses.didt import didt_search_unit


def _arms(seed, generations, population):
    """(name, task) of every GA arm of fig6 + fig7, as the drivers build them."""
    base = resolve_seed(seed)
    arms = [("fig6", (derive_seed(base, "fig6-ga"), generations, population, 3))]
    arms += [(f"fig7-{corner.value}",
              (derive_seed(base, "fig7-ga", idx), generations, population, 3))
             for idx, corner in enumerate(ProcessCorner)]
    return arms


def ga_digest(seed, generations, population) -> str:
    records = []
    for name, task in _arms(seed, generations, population):
        virus, result = didt_search_unit(task)
        records.append((name, virus, result.history, result.evaluations))
    return hashlib.sha256(repr(records).encode("utf-8")).hexdigest()


#: seed -> digest at small budgets (6 generations of 12 genomes).
SMALL_BUDGET_DIGESTS = {
    3: "7db166bb13d1ad244c8ee1629f9a78081327691dd08b9671ce6483ab93fe9e94",
    11: "10eeed1604702e650e12a9eaf7deb43bf5114f605e94c8b1d71a1c5a04ebabbc",
    2018: "e310a078d07cf0290c57f46c77a5fe35f4a8f63c4bedb56e8b79cbbb74923f38",
}

#: seed -> digest at the paper's budgets (25 generations of 32 genomes).
PAPER_BUDGET_DIGESTS = {
    7: "9259dcbfb6bcf7494fb4757bdded266036337442ecbaee0071b23a8700d3b003",
}


@pytest.mark.parametrize("seed", sorted(SMALL_BUDGET_DIGESTS))
def test_ga_arms_match_golden_digest(seed):
    assert ga_digest(seed, 6, 12) == SMALL_BUDGET_DIGESTS[seed]


@pytest.mark.slow
@pytest.mark.parametrize("seed", sorted(PAPER_BUDGET_DIGESTS))
def test_ga_arms_match_golden_digest_at_paper_budgets(seed):
    assert ga_digest(seed, 25, 32) == PAPER_BUDGET_DIGESTS[seed]


def test_arms_follow_the_drivers_recipe():
    """The fig6/fig7 drivers evolve exactly the viruses pinned above."""
    from repro.experiments import run_figure6, run_figure7

    seed, generations, population = 3, 2, 6
    unit_viruses = {name: didt_search_unit(task)[0]
                    for name, task in _arms(seed, generations, population)}
    fig6 = run_figure6(seed=seed, repetitions=2, generations=generations,
                       population=population)
    fig7 = run_figure7(seed=seed, repetitions=2, generations=generations,
                       population=population)
    assert fig6.virus == unit_viruses["fig6"]
    for corner, virus in fig7.viruses.items():
        assert virus == unit_viruses[f"fig7-{corner}"]
