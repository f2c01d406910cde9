"""Figure 4: Vmin of 10 SPEC CPU2006 programs on the three sigma chips.

The paper measures, for each program and each chip (TTT/TFF/TSS), the
safe Vmin on the most robust core at 2.4 GHz, repeating the undervolting
ladder ten times. Reported ranges: 860-885 mV (TTT), 870-885 mV (TFF),
870-900 mV (TSS) against the 980 mV nominal, yielding guaranteed power
reductions of at least 18.4 % (TTT/TFF) and 15.7 % (TSS).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.margins import GuardbandReport, guardband_report
from repro.core.vmin import VminResult
from repro.experiments.common import (
    RunOptions,
    VminTask,
    format_table,
    map_units,
    vmin_search_unit,
)
from repro.rand import SeedLike, resolve_seed
from repro.soc.corners import NOMINAL_PMD_MV, ProcessCorner
from repro.workloads.spec import spec_suite

#: The paper's reported Vmin ranges (mV) per corner, most robust core.
PAPER_RANGES_MV: Dict[str, Tuple[float, float]] = {
    "TTT": (860.0, 885.0),
    "TFF": (870.0, 885.0),
    "TSS": (870.0, 900.0),
}

#: The paper's guaranteed power-reduction claims (percent).
PAPER_MIN_POWER_REDUCTION_PCT: Dict[str, float] = {
    "TTT": 18.4, "TFF": 18.4, "TSS": 15.7,
}


@dataclass(frozen=True)
class Figure4Result:
    """Per-chip, per-program Vmin table."""

    vmin_mv: Dict[str, Dict[str, float]]      # corner -> program -> Vmin
    reports: Dict[str, GuardbandReport]

    def rows(self) -> List[Tuple[str, float, float, float]]:
        """(program, TTT, TFF, TSS) rows in ascending TTT-Vmin order."""
        programs = sorted(self.vmin_mv["TTT"], key=self.vmin_mv["TTT"].get)
        return [
            (name, self.vmin_mv["TTT"][name], self.vmin_mv["TFF"][name],
             self.vmin_mv["TSS"][name])
            for name in programs
        ]

    def measured_range_mv(self, corner: str) -> Tuple[float, float]:
        values = self.vmin_mv[corner].values()
        return (min(values), max(values))

    def guaranteed_power_reduction_pct(self, corner: str) -> float:
        _, worst = self.measured_range_mv(corner)
        return (1.0 - (worst / NOMINAL_PMD_MV) ** 2) * 100.0

    def ordering_consistent_across_chips(self) -> bool:
        """The paper's 'similar trends across the 3 chips' observation."""
        reference = sorted(self.vmin_mv["TTT"], key=self.vmin_mv["TTT"].get)
        for corner in ("TFF", "TSS"):
            order = sorted(self.vmin_mv[corner], key=self.vmin_mv[corner].get)
            if order != reference:
                return False
        return True

    def format(self) -> str:
        lines = ["Figure 4: SPEC CPU2006 Vmin (mV) at 2.4 GHz, most robust core"]
        lines.append(format_table(
            ("program", "TTT", "TFF", "TSS"),
            [(n, f"{a:.0f}", f"{b:.0f}", f"{c:.0f}") for n, a, b, c in self.rows()],
        ))
        for corner in ("TTT", "TFF", "TSS"):
            lo, hi = self.measured_range_mv(corner)
            p_lo, p_hi = PAPER_RANGES_MV[corner]
            lines.append(
                f"{corner}: measured {lo:.0f}-{hi:.0f} mV (paper {p_lo:.0f}-{p_hi:.0f});"
                f" guaranteed power reduction {self.guaranteed_power_reduction_pct(corner):.1f}%"
                f" (paper >= {PAPER_MIN_POWER_REDUCTION_PCT[corner]}%)"
            )
        return "\n".join(lines)


def run_figure4(seed: SeedLike = None, repetitions: int = 10,
                jobs: int = 1,
                options: RunOptions = RunOptions()) -> Figure4Result:
    """Run the full Figure 4 campaign on the three reference parts.

    The 3 chips x 10 programs = 30 Vmin ladders are independent work
    units; ``jobs > 1`` shards them across the supervised process pool
    with results identical to ``jobs=1`` at any worker count.
    ``options`` sets the supervisor's deadline and retry budget and any
    injected faults (lost units re-execute; results are unchanged --
    see :class:`repro.experiments.common.RunOptions`).
    """
    base = resolve_seed(seed) if jobs > 1 or options.faults is not None \
        else seed
    suite = spec_suite()
    tasks: List[VminTask] = [(base, corner, workload, repetitions)
                             for corner in ProcessCorner
                             for workload in suite]
    results: List[VminResult] = map_units(vmin_search_unit, tasks, jobs,
                                          options).unwrap()
    vmin_mv: Dict[str, Dict[str, float]] = {}
    reports: Dict[str, GuardbandReport] = {}
    for index, corner in enumerate(ProcessCorner):
        corner_results = results[index * len(suite):(index + 1) * len(suite)]
        vmin_mv[corner.value] = {r.workload: r.safe_vmin_mv
                                 for r in corner_results}
        reports[corner.value] = guardband_report(
            f"{corner.value}-ref", corner.value, corner_results)
    return Figure4Result(vmin_mv=vmin_mv, reports=reports)


#: Uniform entry point: every experiment module exposes ``run(seed=...)``.
run = run_figure4
