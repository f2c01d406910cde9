"""Inherent (access-driven) refresh.

A DRAM row is recharged both by explicit refresh operations and by any
activation of that row (reads/writes) -- the "inherent refresh" the
paper leans on to explain why real workloads see fewer errors than the
data-pattern viruses, and which its stencil-scheduling study (reference
[12]) exploits deliberately.

:func:`access_interval_coverage` measures, over a workload's row-access
trace, the share of rows whose own accesses recharge them more often than
a target period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class AccessTrace:
    """Row-activation events for one bank over an observation window.

    ``accesses`` maps row -> sorted tuple of activation times (s).
    ``window_s`` is the length of the observed execution window.
    """

    window_s: float
    accesses: Dict[int, Tuple[float, ...]]

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ConfigurationError("trace window must be positive")
        for row, times in self.accesses.items():
            if any(t < 0 or t > self.window_s for t in times):
                raise ConfigurationError(f"row {row}: access time outside window")
            if list(times) != sorted(times):
                raise ConfigurationError(f"row {row}: access times must be sorted")

    @classmethod
    def from_events(cls, window_s: float,
                    events: Iterable[Tuple[float, int]]) -> "AccessTrace":
        """Build from ``(time, row)`` event pairs in any order."""
        by_row: Dict[int, List[float]] = {}
        for time, row in events:
            by_row.setdefault(row, []).append(time)
        return cls(window_s=window_s,
                   accesses={row: tuple(sorted(ts)) for row, ts in by_row.items()})


def access_interval_coverage(trace: AccessTrace, target_s: float) -> float:
    """Fraction of rows self-refreshed by their own access pattern.

    A row counts as covered when it is accessed at least twice and
    its largest inter-access gap stays below ``target_s`` -- i.e.
    the workload alone keeps the row's charge alive over its live
    span, without relying on scheduled refresh. This is the quantity
    the paper's stencil-scheduling study optimizes ("all accesses
    occur within a targeted time period that is less than the next
    scheduled refresh operation").
    """
    if target_s <= 0:
        raise ConfigurationError("target period must be positive")
    if not trace.accesses:
        return 0.0
    covered = 0
    for times in trace.accesses.values():
        if len(times) < 2:
            continue
        max_gap = max(b - a for a, b in zip(times, times[1:]))
        if max_gap < target_s:
            covered += 1
    return covered / len(trace.accesses)
