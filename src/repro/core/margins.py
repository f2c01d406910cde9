"""Guardband accounting: turning Vmin results into margin reports.

The paper's framing: the manufacturer ships every part at one nominal
voltage; measured per-chip, per-workload Vmin reveals how much of that
is pessimistic guardband. This module aggregates Vmin results into the
chip-level summary the figures present -- per-workload margins, the
worst-case (virus) margin, and the headline power-reduction potential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.vmin import VminResult
from repro.errors import CampaignError
from repro.soc.corners import NOMINAL_PMD_MV


@dataclass(frozen=True)
class WorkloadMargin:
    """Margin of one workload on one chip."""

    workload: str
    safe_vmin_mv: float
    margin_mv: float
    power_reduction_pct: float


@dataclass(frozen=True)
class GuardbandReport:
    """Chip-level guardband summary."""

    chip_serial: str
    corner: str
    nominal_mv: float
    per_workload: tuple
    virus_margin_mv: Optional[float]

    @property
    def max_vmin_mv(self) -> float:
        return max(m.safe_vmin_mv for m in self.per_workload)


def guardband_report(chip_serial: str, corner: str,
                     workload_results: Sequence[VminResult],
                     virus_result: Optional[VminResult] = None,
                     nominal_mv: float = NOMINAL_PMD_MV) -> GuardbandReport:
    """Fold Vmin search results into a :class:`GuardbandReport`."""
    if not workload_results:
        raise CampaignError("need at least one workload Vmin result")
    margins = tuple(
        WorkloadMargin(
            workload=result.workload,
            safe_vmin_mv=result.safe_vmin_mv,
            margin_mv=nominal_mv - result.safe_vmin_mv,
            power_reduction_pct=result.power_reduction_fraction * 100.0,
        )
        for result in workload_results
    )
    virus_margin = None
    if virus_result is not None:
        virus_margin = nominal_mv - virus_result.safe_vmin_mv
    return GuardbandReport(
        chip_serial=chip_serial,
        corner=corner,
        nominal_mv=nominal_mv,
        per_workload=margins,
        virus_margin_mv=virus_margin,
    )
