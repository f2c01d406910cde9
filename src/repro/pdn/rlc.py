"""Second-order RLC power-delivery-network model.

The classic lumped model of a chip's power delivery: package inductance
``L`` and resistance ``R`` feeding the on-die capacitance ``C``. Its
input impedance seen by the die peaks near the resonant frequency

    f_res = 1 / (2 * pi * sqrt(L * C))

and current transients near ``f_res`` produce the deepest supply droops
-- the physics the dI/dt virus exploits. Typical server-chip first-order
resonances sit in the tens of MHz; we default to 50 MHz with a quality
factor around 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class PdnParams:
    """Lumped-element parameters of the PDN.

    Attributes
    ----------
    resistance_ohm:
        Series (package + grid) resistance.
    inductance_h:
        Package/socket loop inductance.
    capacitance_f:
        On-die + package decoupling capacitance.
    """

    resistance_ohm: float
    inductance_h: float
    capacitance_f: float

    def __post_init__(self) -> None:
        if min(self.resistance_ohm, self.inductance_h, self.capacitance_f) <= 0:
            raise ConfigurationError("all PDN elements must be positive")

    @property
    def resonant_freq_hz(self) -> float:
        """First-order resonance of the network."""
        return 1.0 / (2.0 * math.pi * math.sqrt(self.inductance_h * self.capacitance_f))

    @property
    def characteristic_impedance_ohm(self) -> float:
        return math.sqrt(self.inductance_h / self.capacitance_f)

    @property
    def quality_factor(self) -> float:
        """Q of the resonance; higher Q means a sharper, deeper peak."""
        return self.characteristic_impedance_ohm / self.resistance_ohm


#: Default PDN: 50 MHz resonance, Q ~= 3 -- representative of published
#: server-class first-order PDN resonances (e.g. reference [2]).
DEFAULT_PDN = PdnParams(
    resistance_ohm=0.003,
    inductance_h=10e-12 * 3.24,   # 32.4 pH
    capacitance_f=313e-9,         # 313 nF
)


@lru_cache(maxsize=64)
def _cached_spectral_grid(params: PdnParams, n: int,
                          sample_rate_hz: float) -> Tuple[np.ndarray, np.ndarray]:
    """One-sided frequency grid + impedance curve for n-point spectra.

    Spectral analysis of every same-length waveform against the same PDN
    reuses this pair, so batched fitness evaluation never recomputes the
    impedance curve. The arrays are frozen read-only: they are shared
    across callers.
    """
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate_hz)
    impedance = PdnModel(params).impedance_ohm(freqs)
    freqs.setflags(write=False)
    impedance.setflags(write=False)
    return freqs, impedance


class PdnModel:
    """Impedance and droop analysis over a PDN parameter set."""

    def __init__(self, params: PdnParams = DEFAULT_PDN) -> None:
        self.params = params
        self._peak_impedance: Optional[float] = None

    def spectral_grid(self, n: int,
                      sample_rate_hz: float) -> Tuple[np.ndarray, np.ndarray]:
        """Cached ``(rfft frequencies, |Z|)`` pair for ``n``-point spectra.

        The values are exactly ``np.fft.rfftfreq(n, 1/rate)`` and
        :meth:`impedance_ohm` over it -- computed once per
        ``(params, n, rate)`` and shared (read-only) thereafter.
        """
        return _cached_spectral_grid(self.params, int(n), float(sample_rate_hz))

    def impedance_ohm(self, freq_hz: np.ndarray) -> np.ndarray:
        """|Z(f)| of the parallel RLC tank seen by the die.

        Series R-L in parallel with C: ``Z = (R + jwL) || 1/(jwC)``.
        """
        w = 2.0 * np.pi * np.asarray(freq_hz, dtype=float)
        # Evaluate at a clipped frequency to avoid the DC singularity of
        # the shunt capacitor, then pin the DC bin to the series
        # resistance (at DC the capacitor is open and the regulator sees
        # only R).
        w_safe = np.where(w > 0, w, 1.0)
        series = self.params.resistance_ohm + 1j * w_safe * self.params.inductance_h
        shunt = 1.0 / (1j * w_safe * self.params.capacitance_f)
        z = np.abs(series * shunt / (series + shunt))
        return np.where(w > 0, z, self.params.resistance_ohm)

    def peak_impedance_ohm(self) -> float:
        """Impedance magnitude at the resonance (computed once)."""
        if self._peak_impedance is None:
            self._peak_impedance = float(
                self.impedance_ohm(np.array([self.params.resonant_freq_hz]))[0])
        return self._peak_impedance

    def droop_spectrum(self, waveform: np.ndarray, freq_ghz: float,
                       current_scale_a: float = 10.0) -> np.ndarray:
        """Per-frequency droop contributions of a current waveform.

        ``waveform`` is the per-cycle relative current from the execution
        model; ``current_scale_a`` converts relative units to amperes
        (full-scale swing of a core cluster ~= 10 A).
        Returns the one-sided droop spectrum in volts.
        """
        n = len(waveform)
        if n < 16:
            raise ConfigurationError("waveform too short for spectral analysis")
        sample_rate_hz = freq_ghz * 1e9
        current = (np.asarray(waveform, dtype=float) - np.mean(waveform)) * current_scale_a
        spectrum = np.fft.rfft(current) / n
        _, impedance = self.spectral_grid(n, sample_rate_hz)
        return 2.0 * np.abs(spectrum) * impedance

    def worst_droop_v(self, waveform: np.ndarray, freq_ghz: float,
                      current_scale_a: float = 10.0) -> float:
        """Worst-case droop (V) -- the resonant peak of the spectrum.

        A conservative single-tone estimate: the dominant spectral line
        through the impedance peak. Good enough for *ranking* stimuli,
        which is all the GA fitness needs.
        """
        spectrum = self.droop_spectrum(waveform, freq_ghz, current_scale_a)
        return float(spectrum.max())
