"""Stencil workloads and access-pattern scheduling (paper ref [12]).

Section IV.C closes with the paper's own earlier IOLTS'17 result: by
reordering memory accesses so every row is re-touched within a target
period shorter than the scheduled refresh, stencil algorithms inherently
refresh their footprint and sidestep retention errors entirely.

We model a 2-D stencil over a grid whose rows map to DRAM rows, and two
schedules:

- ``row_sweep`` -- the natural order: one full pass over the grid per
  iteration, so each DRAM row's re-access interval equals the whole
  sweep time;
- ``blocked`` -- the scheduled order: the grid is processed in row-bands
  sized so that a band's sweep time stays below the target period, and
  iterations are tiled within a band before moving on (temporal
  blocking), keeping every row's access interval short.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.dram.refresh import AccessTrace, access_interval_coverage
from repro.errors import WorkloadError


@dataclass(frozen=True)
class StencilWorkload:
    """A 2-D iterative stencil kernel.

    Attributes
    ----------
    grid_rows:
        Number of grid rows; each maps to one DRAM row.
    row_process_s:
        Time to process one grid row once (compute + memory).
    iterations:
        Stencil sweeps to perform.
    """

    grid_rows: int
    row_process_s: float
    iterations: int

    def __post_init__(self) -> None:
        if self.grid_rows <= 0 or self.iterations <= 0:
            raise WorkloadError("grid_rows and iterations must be positive")
        if self.row_process_s <= 0:
            raise WorkloadError("row_process_s must be positive")

    @property
    def sweep_time_s(self) -> float:
        """Wall time of one full pass over the grid."""
        return self.grid_rows * self.row_process_s

    @property
    def total_time_s(self) -> float:
        return self.sweep_time_s * self.iterations


class StencilScheduler:
    """Generates access traces for the two schedules."""

    def __init__(self, workload: StencilWorkload) -> None:
        self.workload = workload

    def row_sweep_trace(self) -> AccessTrace:
        """Natural order: row r touched at r*dt + k*sweep_time."""
        w = self.workload
        events: List[Tuple[float, int]] = []
        for iteration in range(w.iterations):
            base = iteration * w.sweep_time_s
            for row in range(w.grid_rows):
                events.append((base + row * w.row_process_s, row))
        return AccessTrace.from_events(w.total_time_s, events)

    def blocked_trace(self, target_period_s: float) -> AccessTrace:
        """Temporally-blocked order keeping re-access under the target.

        Bands of ``band_rows`` are chosen so that sweeping one band
        ``iterations`` times keeps each of its rows re-touched within
        the target period. Total work (row visits) is identical to the
        natural schedule.
        """
        w = self.workload
        if target_period_s <= w.row_process_s:
            raise WorkloadError("target period shorter than one row's processing")
        band_rows = max(1, int(target_period_s / w.row_process_s))
        band_rows = min(band_rows, w.grid_rows)
        events: List[Tuple[float, int]] = []
        clock = 0.0
        for band_start in range(0, w.grid_rows, band_rows):
            band = range(band_start, min(band_start + band_rows, w.grid_rows))
            for _iteration in range(w.iterations):
                for row in band:
                    events.append((clock, row))
                    clock += w.row_process_s
        return AccessTrace.from_events(max(clock, w.total_time_s), events)

    def coverage_comparison(self, trefp_s: float,
                            target_period_s: float) -> Tuple[float, float]:
        """Self-refresh coverage of both schedules against ``trefp_s``.

        Returns ``(row_sweep_coverage, blocked_coverage)``: the fraction
        of rows whose own access pattern keeps every inter-access gap
        below the refresh period. The paper's claim is that the blocked
        schedule's access intervals all fall below the refresh period,
        driving coverage to ~1 while the natural sweep leaves rows
        exposed.
        """
        natural = access_interval_coverage(self.row_sweep_trace(), trefp_s)
        blocked = access_interval_coverage(self.blocked_trace(target_period_s), trefp_s)
        return natural, blocked
