"""Stencil workloads and access-pattern scheduling."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.stencil import StencilScheduler, StencilWorkload


@pytest.fixture()
def workload() -> StencilWorkload:
    # Sweep time 2.0 s: longer than a 1.0 s refresh period.
    return StencilWorkload(grid_rows=200, row_process_s=0.01, iterations=3)


def test_timing_properties(workload):
    assert workload.sweep_time_s == pytest.approx(2.0)
    assert workload.total_time_s == pytest.approx(6.0)


def test_row_sweep_trace_shape(workload):
    trace = StencilScheduler(workload).row_sweep_trace()
    assert len(trace.accesses) == 200
    # Each row touched once per iteration.
    assert all(len(times) == 3 for times in trace.accesses.values())


def test_row_sweep_interval_equals_sweep_time(workload):
    trace = StencilScheduler(workload).row_sweep_trace()
    times = trace.accesses[50]
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(g == pytest.approx(2.0) for g in gaps)


def test_blocked_trace_same_total_work(workload):
    scheduler = StencilScheduler(workload)
    natural = sum(len(t) for t in scheduler.row_sweep_trace().accesses.values())
    blocked = sum(len(t) for t in scheduler.blocked_trace(0.5).accesses.values())
    assert natural == blocked


def test_blocked_trace_short_reaccess(workload):
    trace = StencilScheduler(workload).blocked_trace(0.5)
    for times in trace.accesses.values():
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert max(gaps) < 1.0


def test_coverage_comparison_blocked_wins(workload):
    natural, blocked = StencilScheduler(workload).coverage_comparison(
        trefp_s=1.0, target_period_s=0.5)
    assert natural == 0.0      # sweep interval 2.0 s > 1.0 s refresh
    assert blocked == 1.0      # every re-access within the band


def test_target_period_validation(workload):
    with pytest.raises(WorkloadError):
        StencilScheduler(workload).blocked_trace(0.001)


def test_workload_validation():
    with pytest.raises(WorkloadError):
        StencilWorkload(grid_rows=0, row_process_s=0.01, iterations=1)
    with pytest.raises(WorkloadError):
        StencilWorkload(grid_rows=10, row_process_s=-1.0, iterations=1)
