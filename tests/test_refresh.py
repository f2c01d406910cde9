"""Inherent refresh: access traces and self-refresh coverage."""

import pytest

from repro.dram.refresh import AccessTrace, access_interval_coverage
from repro.errors import ConfigurationError


def test_trace_validation():
    with pytest.raises(ConfigurationError):
        AccessTrace(window_s=0.0, accesses={})
    with pytest.raises(ConfigurationError):
        AccessTrace(window_s=1.0, accesses={0: (2.0,)})  # outside window
    with pytest.raises(ConfigurationError):
        AccessTrace(window_s=1.0, accesses={0: (0.8, 0.2)})  # unsorted


def test_trace_from_events_sorts():
    trace = AccessTrace.from_events(10.0, [(5.0, 1), (2.0, 1), (3.0, 2)])
    assert trace.accesses[1] == (2.0, 5.0)
    assert sorted(trace.accesses) == [1, 2]


def test_access_interval_coverage():
    trace = AccessTrace.from_events(10.0, [
        (0.0, 0), (1.0, 0), (2.0, 0),     # gaps 1.0 < 2.0 -> covered
        (0.0, 1), (5.0, 1),               # gap 5.0 -> not covered
        (3.0, 2),                         # single access -> not covered
    ])
    coverage = access_interval_coverage(trace, target_s=2.0)
    assert coverage == pytest.approx(1 / 3)


def test_access_interval_coverage_empty_trace():
    trace = AccessTrace(window_s=1.0, accesses={})
    assert access_interval_coverage(trace, 1.0) == 0.0


def test_access_interval_coverage_bad_target():
    trace = AccessTrace.from_events(1.0, [(0.1, 0)])
    with pytest.raises(ConfigurationError):
        access_interval_coverage(trace, 0.0)
