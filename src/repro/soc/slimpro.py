"""SLIMpro management-processor model.

The Scalable Lightweight Intelligent Management Processor is the paper's
control plane: it boots the system, programs the voltage rails and MCU
parameters such as the refresh period (TREFP), and reports every
ECC-corrected/detected error up to the Linux kernel. Our model keeps that
message-based flavour for the rails: callers issue typed requests, which
the SLIMpro range-checks. It also keeps the ECC audit log the parsing
phase of the framework consumes. The refresh period is not programmed
here: each :class:`~repro.dram.controller.MemoryControlUnit` holds its
own TREFP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ConfigurationError, VoltageDomainError
from repro.soc.domains import DomainName, VoltageRegulator, default_regulators


@dataclass(frozen=True)
class EccReport:
    """One ECC event forwarded to the kernel's EDAC layer."""

    time_s: float
    source: str          # e.g. "mcu0", "core3.l1d"
    correctable: bool
    address: int = 0


class SLIMpro:
    """The management core: regulators and ECC log.

    Parameters
    ----------
    regulators:
        The board's voltage rails; defaults to the X-Gene2 set.
    """

    def __init__(self, regulators: Optional[Dict[DomainName, VoltageRegulator]] = None) -> None:
        self.regulators = regulators if regulators is not None else default_regulators()
        self._ecc_log: List[EccReport] = []
        self._booted = False

    # ------------------------------------------------------------------
    # Boot
    # ------------------------------------------------------------------
    def boot(self) -> None:
        """Bring the board up; the rails accept requests from now on."""
        self._booted = True

    # ------------------------------------------------------------------
    # Voltage control
    # ------------------------------------------------------------------
    def set_domain_voltage(self, domain: DomainName, target_mv: float) -> float:
        """Program a rail; returns the applied (snapped) set-point."""
        self._require_boot()
        if domain not in self.regulators:
            raise VoltageDomainError(f"no regulator for domain {domain}")
        return self.regulators[domain].set_voltage(target_mv)

    # ------------------------------------------------------------------
    # Error reporting
    # ------------------------------------------------------------------
    def report_ecc(self, report: EccReport) -> None:
        """Record an ECC event (MCU/cache hardware calls this)."""
        self._ecc_log.append(report)

    def ecc_events(self, since_s: float = 0.0) -> List[EccReport]:
        """ECC events at or after ``since_s`` (kernel log extraction)."""
        return [e for e in self._ecc_log if e.time_s >= since_s]

    def correctable_count(self, since_s: float = 0.0) -> int:
        return sum(1 for e in self.ecc_events(since_s) if e.correctable)

    def uncorrectable_count(self, since_s: float = 0.0) -> int:
        return sum(1 for e in self.ecc_events(since_s) if not e.correctable)

    def _require_boot(self) -> None:
        if not self._booted:
            raise ConfigurationError("SLIMpro operation before boot()")
