"""Analytic power models for the SoC domains.

Power projections in the paper come from the board's SLIMpro-accessible
sensors. Our substitute computes domain power analytically from operating
conditions:

- dynamic power scales as ``f * V^2`` (CV^2f switching),
- leakage scales as ``V * exp(V / v0)``-like behaviour, linearized here
  to ``exp((V - Vnom) / v0)`` relative to its nominal share,
- DRAM power is handled separately by :mod:`repro.dram.power` (its knob
  is the refresh period).

The per-corner leakage fractions live in :mod:`repro.soc.corners`; the
TTT chip's 20 % leakage share at nominal is what turns a 5.1 % voltage
reduction (980 -> 930 mV) into the ~20 % PMD-domain power saving the
paper reports for the Jammer experiment (Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass

import math

from repro.errors import ConfigurationError
from repro.soc.corners import CornerParams


@dataclass(frozen=True)
class CorePowerModel:
    """Relative power of a clocked digital domain (PMD or SoC uncore).

    All scaling is relative to the domain's nominal operating point
    ``(nominal_mv, nominal_ghz)``; absolute watts enter via
    ``nominal_watts`` when projecting server power.
    """

    nominal_mv: float
    nominal_ghz: float
    leakage_fraction: float
    leakage_v0_mv: float
    nominal_watts: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.leakage_fraction < 1.0:
            raise ConfigurationError("leakage_fraction must be in [0, 1)")
        if min(self.nominal_mv, self.nominal_ghz, self.leakage_v0_mv) <= 0:
            raise ConfigurationError("nominal operating point must be positive")

    def relative_power(self, voltage_mv: float, freq_ghz: float = None,
                       utilisation: float = 1.0) -> float:
        """Power relative to nominal at a scaled operating point.

        ``utilisation`` scales only the dynamic component (an idle domain
        still leaks).
        """
        freq_ghz = self.nominal_ghz if freq_ghz is None else freq_ghz
        if not 0.0 <= utilisation <= 1.0:
            raise ConfigurationError("utilisation must be in [0, 1]")
        v_ratio = voltage_mv / self.nominal_mv
        f_ratio = freq_ghz / self.nominal_ghz
        dynamic = (1.0 - self.leakage_fraction) * f_ratio * v_ratio ** 2 * utilisation
        leak = self.leakage_fraction * v_ratio * math.exp(
            (voltage_mv - self.nominal_mv) / self.leakage_v0_mv
        )
        return dynamic + leak

    def watts(self, voltage_mv: float, freq_ghz: float = None,
              utilisation: float = 1.0) -> float:
        """Absolute domain power (W) at an operating point."""
        return self.nominal_watts * self.relative_power(voltage_mv, freq_ghz, utilisation)

    @classmethod
    def for_corner(cls, params: CornerParams, nominal_mv: float,
                   nominal_ghz: float, nominal_watts: float = 1.0) -> "CorePowerModel":
        """Build a model using a process corner's leakage parameters."""
        return cls(
            nominal_mv=nominal_mv,
            nominal_ghz=nominal_ghz,
            leakage_fraction=params.leakage_fraction,
            leakage_v0_mv=params.leakage_v0_mv,
            nominal_watts=nominal_watts,
        )


def multicore_relative_power(per_core_freq_ghz: list, voltage_mv: float,
                             model: CorePowerModel) -> float:
    """Relative PMD-domain power when cores run at mixed frequencies.

    Used by the Figure 5 tradeoff ladder, where some PMDs are downclocked
    to 1.2 GHz while the shared rail voltage is set by the fastest ones.
    Dynamic power averages the per-core frequency ratios; leakage is
    voltage-only.
    """
    if not per_core_freq_ghz:
        raise ConfigurationError("need at least one core frequency")
    v_ratio = voltage_mv / model.nominal_mv
    f_ratios = [f / model.nominal_ghz for f in per_core_freq_ghz]
    dynamic = (1.0 - model.leakage_fraction) * v_ratio ** 2 * (
        sum(f_ratios) / len(f_ratios)
    )
    leak = model.leakage_fraction * v_ratio * math.exp(
        (voltage_mv - model.nominal_mv) / model.leakage_v0_mv
    )
    return dynamic + leak
