"""Voltage domains and their regulators.

The X-Gene2 board exposes three independently-regulated supplies that the
paper undervolts/relaxes separately (Section IV.D / Figure 9):

- ``PMD``  -- the four processor modules (cores + L1/L2), nominal 980 mV;
- ``SOC``  -- the uncore (L3, central switch, MCBs/MCUs), nominal 950 mV;
- ``DRAM`` -- the DIMMs, whose knob is the refresh period, not voltage.

A :class:`VoltageRegulator` validates requested set-points against its
programmable range and step, mirroring the PMBus-style regulators the
real board drives through SLIMpro.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

from repro.errors import VoltageDomainError
from repro.soc.corners import NOMINAL_PMD_MV, NOMINAL_SOC_MV


class DomainName(enum.Enum):
    """The board's independently controllable power domains."""

    PMD = "PMD"
    SOC = "SoC"
    DRAM = "DRAM"

    def __str__(self) -> str:
        return self.value


@dataclass
class VoltageRegulator:
    """One programmable rail.

    Attributes
    ----------
    domain:
        Which domain this regulator feeds.
    nominal_mv:
        The manufacturer's shipped set-point.
    min_mv / max_mv:
        Programmable range; requests outside it raise
        :class:`VoltageDomainError` (the real regulator NACKs them).
    step_mv:
        Set-point granularity; requests are snapped to the nearest step.
    """

    domain: DomainName
    nominal_mv: float
    min_mv: float = 700.0
    max_mv: float = 1050.0
    step_mv: float = 5.0

    def __post_init__(self) -> None:
        if not self.min_mv <= self.nominal_mv <= self.max_mv:
            raise VoltageDomainError(
                f"{self.domain}: nominal {self.nominal_mv} outside "
                f"[{self.min_mv}, {self.max_mv}]"
            )
        if self.step_mv <= 0:
            raise VoltageDomainError("regulator step must be positive")

    def set_voltage(self, target_mv: float) -> float:
        """Validate a new set-point; returns the snapped value applied."""
        if not self.min_mv <= target_mv <= self.max_mv:
            raise VoltageDomainError(
                f"{self.domain}: requested {target_mv} mV outside "
                f"[{self.min_mv}, {self.max_mv}] mV"
            )
        return round(target_mv / self.step_mv) * self.step_mv


def default_regulators() -> Dict[DomainName, VoltageRegulator]:
    """The board's three rails at manufacturer set-points.

    The DRAM rail is fixed-voltage on this board (its knob is TREFP),
    so its regulator has a degenerate range.
    """
    return {
        DomainName.PMD: VoltageRegulator(DomainName.PMD, nominal_mv=NOMINAL_PMD_MV),
        DomainName.SOC: VoltageRegulator(DomainName.SOC, nominal_mv=NOMINAL_SOC_MV),
        DomainName.DRAM: VoltageRegulator(
            DomainName.DRAM, nominal_mv=1350.0, min_mv=1350.0, max_mv=1350.0,
        ),
    }
