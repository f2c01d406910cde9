"""SLIMpro management-processor model.

The Scalable Lightweight Intelligent Management Processor is the paper's
control plane: it boots the system, programs the voltage rails and MCU
parameters such as the refresh period (TREFP), and reports every
ECC-corrected/detected error up to the Linux kernel. Our model keeps that
message-based flavour: callers issue typed requests, which the SLIMpro
range-checks, and it keeps the ECC audit log the parsing phase of the
framework consumes.
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
    """The management core: regulators, MCU config, ECC log.

    Parameters
    ----------
    regulators:
        The board's voltage rails; defaults to the X-Gene2 set.
    num_mcus:
        Memory control units whose TREFP is programmable (4 on X-Gene2).
    """

    def __init__(self, regulators: Optional[Dict[DomainName, VoltageRegulator]] = None,
                 num_mcus: int = 4) -> None:
        if num_mcus <= 0:
            raise ConfigurationError("num_mcus must be positive")
        self.regulators = regulators if regulators is not None else default_regulators()
        self.num_mcus = num_mcus
        self._ecc_log: List[EccReport] = []
        self._booted = False

    # ------------------------------------------------------------------
    # Boot
    # ------------------------------------------------------------------
    def boot(self) -> None:
        """Bring the board up; rails and MCUs accept requests from now on."""
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
    # MCU configuration (refresh period)
    # ------------------------------------------------------------------
    def set_refresh_period(self, trefp_s: float, mcu: Optional[int] = None) -> None:
        """Check a TREFP request for one MCU, or for all when ``mcu`` is None.

        Each :class:`~repro.dram.controller.MemoryControlUnit` holds the
        refresh period it scrubs with; this is the management-side check
        on the request.
        """
        self._require_boot()
        if trefp_s <= 0:
            raise ConfigurationError("refresh period must be positive")
        if mcu is not None and not 0 <= mcu < self.num_mcus:
            raise ConfigurationError(f"mcu index {mcu} out of range")

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
