"""Loop-level droop analysis: code -> normalized swing -> droop.

Glue between the execution model, the PDN, and the chip Vmin model.
The chip model consumes a *normalized resonant swing* in [0, 1]: the
fraction of the maximum achievable resonant excitation a stimulus
produces. This module computes that number for any instruction loop by
pushing its current waveform through the PDN and normalizing against the
best possible square-wave excitation at the resonance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.cpu.execution import ExecutionModel, ExecutionProfile
from repro.cpu.isa import InstrClass
from repro.cpu.kernels import InstructionLoop, square_wave_loop
from repro.pdn.rlc import DEFAULT_PDN, PdnModel, PdnParams


@dataclass(frozen=True)
class DroopAnalysis:
    """Electrical summary of one instruction loop."""

    profile: ExecutionProfile
    droop_v: float
    resonant_swing: float  # normalized to the reference square wave

    @property
    def droop_mv(self) -> float:
        return self.droop_v * 1000.0


def _reference_droop_v(pdn: PdnModel, freq_ghz: float, window_cycles: int) -> float:
    """Droop of the ideal square wave at the PDN resonance.

    This is the normalization denominator: the strongest excitation any
    loop over this ISA can produce (full-current bursts alternating with
    idle bursts at exactly the resonant period).
    """
    res_period_cycles = freq_ghz * 1e9 / pdn.params.resonant_freq_hz
    loop = square_wave_loop(InstrClass.SIMD, InstrClass.NOP,
                            half_period_cycles=int(round(res_period_cycles / 2)))
    model = ExecutionModel(freq_ghz=freq_ghz, window_cycles=window_cycles)
    profile = model.profile(loop)
    return pdn.worst_droop_v(profile.waveform, freq_ghz)


@lru_cache(maxsize=16)
def _cached_reference(params: PdnParams, freq_ghz: float, window_cycles: int) -> float:
    return _reference_droop_v(PdnModel(params), freq_ghz, window_cycles)


def analyze_loop(loop: InstructionLoop, pdn: PdnModel = None,
                 freq_ghz: float = 2.4, window_cycles: int = 4096) -> DroopAnalysis:
    """Full electrical analysis of ``loop``.

    ``window_cycles`` defaults to 4096 (~85 resonance periods at 2.4 GHz
    with the default 50 MHz PDN) so the spectral estimate is stable.
    """
    pdn = pdn or PdnModel(DEFAULT_PDN)
    model = ExecutionModel(freq_ghz=freq_ghz, window_cycles=window_cycles)
    profile = model.profile(loop)
    droop = pdn.worst_droop_v(profile.waveform, freq_ghz)
    reference = _cached_reference(pdn.params, freq_ghz, window_cycles)
    swing = min(1.0, droop / reference) if reference > 0 else 0.0
    return DroopAnalysis(profile=profile, droop_v=droop, resonant_swing=swing)
