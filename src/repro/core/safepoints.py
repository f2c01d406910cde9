"""Safe-operating-point selection (paper Section IV.D).

Turns a chip's characterization results into the operating points a
deployment would actually program: a safe PMD voltage, a safe SoC
voltage and a relaxed DRAM refresh period, each with a configurable
safety margin on top of the measured limits. The Jammer experiment's
(930 mV PMD, 920 mV SoC, 35x TREFP) point is produced this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.core.margins import GuardbandReport
from repro.errors import ConfigurationError
from repro.soc.corners import NOMINAL_PMD_MV, NOMINAL_SOC_MV
from repro.units import NOMINAL_REFRESH_S, RELAXED_REFRESH_S


@dataclass(frozen=True)
class SafeOperatingPoint:
    """A deployable operating point for the whole server."""

    pmd_mv: float
    soc_mv: float
    trefp_s: float
    safety_margin_mv: float

    def __post_init__(self) -> None:
        if self.pmd_mv <= 0 or self.soc_mv <= 0 or self.trefp_s <= 0:
            raise ConfigurationError("operating point values must be positive")

    @property
    def pmd_undervolt_mv(self) -> float:
        return NOMINAL_PMD_MV - self.pmd_mv

    @property
    def refresh_relaxation(self) -> float:
        return self.trefp_s / NOMINAL_REFRESH_S


def select_safe_points(report: GuardbandReport,
                       dram_all_corrected: bool,
                       safety_margin_mv: float = 10.0,
                       workload_margin_mv: float = 5.0,
                       soc_track_offset_mv: float = 10.0,
                       step_mv: float = 5.0,
                       relaxed_trefp_s: float = RELAXED_REFRESH_S) -> SafeOperatingPoint:
    """Derive the server's safe operating point from characterization.

    Policy (mirroring the paper's choices):

    - the PMD rail target is the chip's intrinsic worst-case limit --
      the dI/dt virus Vmin (measured as in Figure 7) -- plus
      ``safety_margin_mv``. The virus is a pathological stimulus no
      deployed workload reaches, so this is already conservative; the
      rail is additionally cross-checked against the highest measured
      *workload* Vmin plus ``workload_margin_mv`` and takes whichever is
      higher. On the paper's TTT part this lands at 930 mV;
    - the SoC rail tracks the PMD rail minus ``soc_track_offset_mv``
      (the paper deploys 930/920);
    - the refresh period is relaxed to ``relaxed_trefp_s`` only when the
      DRAM characterization showed every manifested error corrected by
      ECC; otherwise it stays nominal.
    """
    if safety_margin_mv < 0 or soc_track_offset_mv < 0 or workload_margin_mv < 0:
        raise ConfigurationError("margins cannot be negative")
    if step_mv <= 0:
        raise ConfigurationError("regulator step must be positive")
    workload_target = report.max_vmin_mv + workload_margin_mv
    if report.virus_margin_mv is not None:
        virus_vmin = report.nominal_mv - report.virus_margin_mv
        target = max(virus_vmin + safety_margin_mv, workload_target)
    else:
        target = report.max_vmin_mv + safety_margin_mv
    snapped = _ceil_to_step(target, step_mv)
    pmd_mv = min(snapped, report.nominal_mv)
    soc_mv = min(pmd_mv - soc_track_offset_mv, NOMINAL_SOC_MV)
    trefp = relaxed_trefp_s if dram_all_corrected else NOMINAL_REFRESH_S
    return SafeOperatingPoint(
        pmd_mv=pmd_mv,
        soc_mv=soc_mv,
        trefp_s=trefp,
        safety_margin_mv=safety_margin_mv,
    )


def _ceil_to_step(value: float, step: float) -> float:
    """Round up to the next multiple of ``step``."""
    import math
    return math.ceil(value / step - 1e-9) * step
