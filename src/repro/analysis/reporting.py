"""Reproduction-report builder.

Runs the full experiment suite and renders a single text report --
the artifact the CLI's ``run all`` and the docs' EXPERIMENTS.md are
built from. Each section carries the experiment's own formatted rows
plus a one-line verdict against the paper's headline claim.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.rand import SeedLike


@dataclass(frozen=True)
class SectionResult:
    """One experiment's contribution to the report."""

    name: str
    body: str
    verdict: str
    passed: bool
    elapsed_s: float


@dataclass
class ReproductionReport:
    """The assembled report."""

    sections: List[SectionResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(section.passed for section in self.sections)

    @property
    def total_elapsed_s(self) -> float:
        return sum(section.elapsed_s for section in self.sections)

    def render(self) -> str:
        lines = ["REPRODUCTION REPORT",
                 "paper: Measuring and Exploiting Guardbands of Server-Grade "
                 "ARMv8 CPU Cores and DRAMs (DSN 2018)", ""]
        for section in self.sections:
            status = "PASS" if section.passed else "DEVIATION"
            lines.append("-" * 72)
            lines.append(f"[{status}] {section.name} ({section.elapsed_s:.1f}s)")
            lines.append(section.body)
            lines.append(f"verdict: {section.verdict}")
            lines.append("")
        lines.append("-" * 72)
        overall = "ALL SHAPE CHECKS PASS" if self.all_passed \
            else "SOME SHAPE CHECKS DEVIATE"
        lines.append(f"{overall} ({len(self.sections)} experiments, "
                     f"{self.total_elapsed_s:.0f}s)")
        return "\n".join(lines)


def _checked(name: str, runner: Callable[[], Tuple[str, str, bool]]) -> SectionResult:
    start = time.perf_counter()
    body, verdict, passed = runner()
    return SectionResult(name=name, body=body, verdict=verdict,
                         passed=passed, elapsed_s=time.perf_counter() - start)


def build_report(seed: SeedLike = None, fast: bool = True) -> ReproductionReport:
    """Run every experiment and assemble the report.

    ``fast=True`` runs each experiment at its
    :data:`~repro.experiments.FAST` budget (suitable for CI); otherwise
    at the drivers' paper budgets, as ``run NAME`` does.
    """
    from repro.experiments import (
        FAST, run_figure4, run_figure5, run_figure6, run_figure7,
        run_figure8a, run_figure8b, run_figure9,
        run_stencil_study, run_table1,
    )

    def budget(name: str) -> Dict[str, object]:
        return FAST.get(name, {}) if fast else {}

    report = ReproductionReport()

    def fig4():
        result = run_figure4(seed=seed, **budget("fig4"))
        lo, hi = result.measured_range_mv("TTT")
        ok = (855 <= lo <= 865) and (880 <= hi <= 890) \
            and result.ordering_consistent_across_chips()
        return (result.format(),
                f"TTT range {lo:.0f}-{hi:.0f} mV vs paper 860-885", ok)

    def fig5():
        result = run_figure5(seed=seed, **budget("fig5"))
        ok = abs(result.full_perf_savings_pct - 12.8) < 1.0 \
            and abs(result.best_energy_savings_pct - 38.8) < 1.0 \
            and result.predictor_is_safe
        return (result.format(),
                f"savings {result.full_perf_savings_pct:.1f}%/"
                f"{result.best_energy_savings_pct:.1f}% vs paper 12.8%/38.8%", ok)

    def fig6():
        result = run_figure6(seed=seed, **budget("fig6"))
        return (result.format(),
                f"virus highest by {result.gap_mv:.0f} mV",
                result.virus_is_highest)

    def fig7():
        result = run_figure7(seed=seed, **budget("fig7"))
        return (result.format(),
                "margin ordering TTT > TFF > TSS ~ 0",
                result.ordering_matches_paper and result.tss_margin_negligible)

    def table1():
        result = run_table1(seed=seed, **budget("table1"))
        amp = result.temperature_amplification()
        ok = result.all_errors_corrected and 12.0 < amp < 24.0
        return (result.format(),
                f"all ECC-corrected, 60/50C amplification {amp:.1f}x", ok)

    def fig8a():
        result = run_figure8a(seed=seed)
        ok = result.random_is_worst_pattern \
            and result.workloads_below_random_virus \
            and 1.8 < result.workload_variation < 3.2
        return (result.format(),
                f"random worst, workload spread {result.workload_variation:.1f}x", ok)

    def fig8b():
        result = run_figure8b(seed=seed)
        name_max, val_max = result.max_savings
        name_min, val_min = result.min_savings
        ok = name_max == "nw" and name_min == "kmeans" \
            and abs(val_max - 27.3) < 1.0 and abs(val_min - 9.4) < 1.0
        return (result.format(),
                f"{name_max} {val_max:.1f}% / {name_min} {val_min:.1f}% "
                "vs paper nw 27.3% / kmeans 9.4%", ok)

    def fig9():
        result = run_figure9(seed=seed, **budget("fig9"))
        ok = result.qos_met \
            and abs(result.power.total_savings_pct - 20.2) < 2.0
        return (result.format(),
                f"total savings {result.power.total_savings_pct:.1f}% "
                "vs paper 20.2%, QoS met", ok)

    def stencil():
        result = run_stencil_study(seed=seed)
        ok = result.blocked_coverage > 0.9 > result.natural_coverage
        return (result.format(), "blocked schedule self-refreshes", ok)

    for name, runner in (("Figure 4", fig4), ("Figure 5", fig5),
                         ("Figure 6", fig6), ("Figure 7", fig7),
                         ("Table I", table1), ("Figure 8a", fig8a),
                         ("Figure 8b", fig8b), ("Figure 9", fig9),
                         ("Stencil scheduling", stencil)):
        report.sections.append(_checked(name, runner))
    return report
