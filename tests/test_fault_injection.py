"""The deterministic fault-injection harness (repro.core.faults)."""

from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.core.faults import (
    UNIT_EXIT,
    UNIT_HANG,
    UNIT_POISON,
    FaultBurst,
    FaultPlan,
    FaultSpec,
)
from repro.core.supervisor import DEFAULT_MAX_RETRIES, SupervisedPool
from repro.errors import CampaignError
from repro.experiments.common import RunOptions, map_units


def _square(x):
    return x * x


# ----------------------------------------------------------------------
# FaultBurst
# ----------------------------------------------------------------------
def test_burst_hits_window_and_depth():
    burst = FaultBurst(first_row=3, rows=2, depth=2)
    assert burst.hits(3, 0) and burst.hits(4, 1)
    assert not burst.hits(2, 0)        # before the window
    assert not burst.hits(5, 0)        # past the window
    assert not burst.hits(3, 2)        # past the doomed depth


def test_burst_validation():
    with pytest.raises(CampaignError):
        FaultBurst(first_row=-1, rows=1, depth=1)
    with pytest.raises(CampaignError):
        FaultBurst(first_row=0, rows=0, depth=1)
    with pytest.raises(CampaignError):
        FaultBurst(first_row=0, rows=1, depth=0)


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
def test_plan_validation():
    with pytest.raises(CampaignError):
        FaultPlan(unit_exits=((-1, 1),))
    with pytest.raises(CampaignError):
        FaultPlan(unit_hangs=((0, 0),))
    # A repeated unit index would silently keep only one of its counts.
    with pytest.raises(CampaignError):
        FaultPlan(unit_exits=((0, 2), (0, 1)))
    with pytest.raises(CampaignError):
        FaultPlan(unit_hangs=((3, 1), (3, 1)))
    # One unit may both exit and hang.
    FaultPlan(unit_exits=((0, 1),), unit_hangs=((0, 1),))


def test_random_plan_is_reproducible():
    a = FaultPlan.random(99, shards=6, rows=120)
    b = FaultPlan.random(99, shards=6, rows=120)
    assert a == b
    assert a != FaultPlan.random(100, shards=6, rows=120)


def test_random_plan_places_bursts_inside_row_range():
    plan = FaultPlan.random(3, shards=4, rows=50, max_depth=3)
    for burst in plan.corruption_bursts + plan.loss_bursts:
        assert 0 <= burst.first_row < 50
        assert 1 <= burst.depth <= 3
    assert plan.corruption_bursts and plan.loss_bursts


def test_random_plan_without_rows_has_no_bursts():
    plan = FaultPlan.random(3, shards=4, rows=0)
    assert plan.corruption_bursts == () and plan.loss_bursts == ()


def test_random_plan_exits_converge_under_the_default_budget():
    for seed in range(20):
        plan = FaultPlan.random(seed, shards=8)
        assert all(1 <= count <= DEFAULT_MAX_RETRIES
                   for _, count in plan.unit_exits)


def test_random_plan_needs_shards():
    with pytest.raises(CampaignError):
        FaultPlan.random(1, shards=0)


# ----------------------------------------------------------------------
# FaultSpec
# ----------------------------------------------------------------------
def test_fault_spec_parses_any_subset_of_families():
    assert FaultSpec.parse("random=77,real=7,thermal=0") == \
        FaultSpec(random=77, real=7, thermal=0)
    assert FaultSpec.parse("thermal=3") == FaultSpec(thermal=3)
    assert FaultSpec.parse(" real = 5 , random=1") == FaultSpec(random=1,
                                                                real=5)


@pytest.mark.parametrize("text", [
    "", "  ", "bogus=1", "random=1,random=2", "real=x", "real=", "real",
    "thermal=1.5", "random=-1", "random=1,",
], ids=["empty", "blank", "unknown", "repeated", "non-int", "no-seed",
        "no-equals", "float", "negative", "trailing-comma"])
def test_fault_spec_rejects_malformed_specs(text, capsys):
    with pytest.raises(CampaignError):
        FaultSpec.parse(text)
    assert main(["run", "fig5", "--faults", text]) == 2
    assert "--faults" in capsys.readouterr().err


@pytest.mark.parametrize("rows", [0, 90])
def test_fault_spec_plan_matches_constructor_composition(rows):
    units = 6
    random = FaultPlan.random(77, shards=units, rows=rows)
    real = FaultPlan.random_real(7, units=units)
    thermal = FaultPlan.random_thermal(0, zones=8, horizon_s=900.0)
    assert FaultSpec(random=77).plan(units, rows) == random
    assert FaultSpec(real=7).plan(units, rows) == real
    assert FaultSpec(random=77, real=7).plan(units, rows) == replace(
        random, unit_exits=real.unit_exits, unit_hangs=real.unit_hangs,
        poison_units=real.poison_units, hang_seconds=real.hang_seconds)
    assert FaultSpec(thermal=0).plan(zones=8, horizon_s=900.0) == thermal
    # Each family is drawn only for the sizes it applies to.
    assert FaultSpec(random=77, thermal=0).plan(units, rows) == random
    assert FaultSpec(random=77, thermal=0).plan(zones=8) == thermal


# ----------------------------------------------------------------------
# FaultPlan decisions, and where their counts live
# ----------------------------------------------------------------------
def test_unit_fault_order_exits_then_hangs_then_poison():
    plan = FaultPlan(unit_exits=((0, 2),), unit_hangs=((0, 1),),
                     poison_units=(0,), hang_seconds=0.1)
    assert plan.unit_fault(0, 0) == UNIT_EXIT
    assert plan.unit_fault(0, 1) == UNIT_EXIT
    assert plan.unit_fault(0, 2) == UNIT_HANG
    assert plan.unit_fault(0, 3) == UNIT_POISON
    assert plan.unit_fault(1, 0) is None       # unlisted unit survives
    # The supervisor's ledger counts what the plan injected.
    outcome = SupervisedPool(jobs=1).map(_square, [0, 1], faults=plan)
    assert outcome.injected(UNIT_EXIT) == 2
    assert outcome.injected(UNIT_HANG) == 1
    assert outcome.injected(UNIT_POISON) == 1


def test_transport_decisions_are_pure_of_index_and_attempt():
    plan = FaultPlan(corruption_bursts=(FaultBurst(2, 3, 2),),
                     loss_bursts=(FaultBurst(0, 1, 1),))
    for _ in range(3):  # same (row, attempt) -> same answer, every time
        assert plan.corrupts(2, 0) is True
        assert plan.corrupts(2, 2) is False
        assert plan.drops(0, 0) is True
        assert plan.drops(1, 0) is False


# ----------------------------------------------------------------------
# map_units under injected worker exits
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2])
def test_map_units_reexecutes_killed_units(jobs):
    plan = FaultPlan(unit_exits=((0, 2), (1, 1), (3, 1)))
    items = list(range(5))
    outcome = map_units(_square, items, jobs, RunOptions(faults=plan))
    assert outcome.unwrap() == [0, 1, 4, 9, 16]
    assert outcome.injected(UNIT_EXIT) == 4
