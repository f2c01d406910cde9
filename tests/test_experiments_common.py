"""Shared experiment plumbing."""

import pytest

from repro.core.faults import FaultPlan, FaultSpec, ThermalFault
from repro.core.supervisor import SupervisedPool
from repro.errors import CampaignError
from repro.experiments.common import (
    RunOptions,
    format_table,
    reference_executors,
    vmin_searches,
)
from repro.soc.corners import ProcessCorner


def test_format_table_alignment():
    text = format_table(("name", "value"), [("a", 1), ("longer", 22)])
    lines = text.splitlines()
    assert len(lines) == 4  # header, rule, two rows
    assert all(len(line) == len(lines[0]) for line in lines)
    assert "name" in lines[0] and "---" in lines[1]


def test_format_table_float_rendering():
    text = format_table(("x",), [(1.23456,)])
    assert "1.235" in text


def test_reference_executors_cover_corners():
    executors = reference_executors(seed=1)
    assert set(executors) == set(ProcessCorner)
    for corner, executor in executors.items():
        assert executor.chip.corner is corner


def test_vmin_searches_configured():
    searches = vmin_searches(seed=1, repetitions=7, step_mv=10.0)
    for search in searches.values():
        assert search.repetitions == 7
        assert search.step_mv == 10.0


@pytest.mark.parametrize("kwargs", [{"max_retries": -1}, {"unit_timeout": 0},
                                    {"unit_timeout": -2.5}])
def test_run_options_reject_what_the_pool_rejects(kwargs):
    with pytest.raises(CampaignError) as pool_error:
        SupervisedPool(**kwargs)
    with pytest.raises(CampaignError) as options_error:
        RunOptions(**kwargs)
    assert str(options_error.value) == str(pool_error.value)


def test_run_options_size_a_spec_and_pass_a_fixed_plan_through():
    spec = FaultSpec(random=3, thermal=1)
    options = RunOptions(faults=spec)
    assert options.plan(units=5, rows=40) == spec.plan(5, 40)
    assert options.thermal_plan(8) == spec.plan(zones=8)
    fixed = FaultPlan(unit_exits=((0, 1),))
    assert RunOptions(faults=fixed).plan(units=5) is fixed
    assert RunOptions().plan(units=5) is None


def test_thermal_plan_only_when_thermal_faults_are_asked_for():
    assert RunOptions().thermal_plan(8) is None
    assert RunOptions(faults=FaultSpec(random=3)).thermal_plan(8) is None
    # A fixed plan without thermal faults does not imply regulation...
    assert RunOptions(faults=FaultPlan(unit_exits=((0, 1),))
                      ).thermal_plan(8) is None
    # ...one with them passes through unchanged...
    rig = FaultPlan(thermal_faults=(
        ThermalFault(zone=0, kind="heater-failed", start_s=10.0),))
    assert RunOptions(faults=rig).thermal_plan(8) is rig
    # ...and a thermal seed always regulates, even if it draws no fault.
    assert RunOptions(faults=FaultSpec(thermal=0)).thermal_plan(1) \
        is not None
