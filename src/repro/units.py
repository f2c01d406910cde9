"""Unit conventions and conversion helpers.

The library stores physical quantities as plain floats in fixed canonical
units. This module documents those conventions and provides conversion
helpers so call sites never embed bare magic factors.

Canonical units
---------------
- voltage: millivolts (mV) -- matches how the paper reports every number
- frequency: gigahertz (GHz) for core clocks, hertz (Hz) for PDN analysis
- time: seconds (s); DRAM refresh intervals also expressed in seconds
- temperature: degrees Celsius (C); Kelvin only inside Arrhenius math
- power: watts (W)
- energy: joules (J)
- current: amperes (A)
"""

from __future__ import annotations

KELVIN_OFFSET = 273.15

#: Boltzmann constant in eV/K (used by the Arrhenius retention model).
BOLTZMANN_EV_PER_K = 8.617333262e-5

#: Nominal DDR3 refresh interval (tREFW) in seconds -- 64 ms per JEDEC.
NOMINAL_REFRESH_S = 0.064

#: The paper's relaxed refresh interval: "from the nominal 64ms to 2.283s".
RELAXED_REFRESH_S = 2.283

#: Relaxation factor quoted in the paper ("35x relaxed refresh period").
REFRESH_RELAX_FACTOR = RELAXED_REFRESH_S / NOMINAL_REFRESH_S


def celsius_to_kelvin(temp_c: float) -> float:
    """Convert a Celsius temperature to Kelvin."""
    return temp_c + KELVIN_OFFSET


def percent(before: float, after: float) -> float:
    """Relative reduction from ``before`` to ``after``, in percent.

    >>> round(percent(31.1, 24.8), 1)
    20.3
    """
    if before == 0:
        raise ZeroDivisionError("cannot compute a relative reduction from 0")
    return (before - after) / before * 100.0
