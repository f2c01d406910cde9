"""Electromagnetic-emanation sensor model.

The paper cannot probe the supply rail directly, so it senses voltage
noise through radiated EM near the package (reference [14]): large
resonant current loops radiate, and the radiated amplitude at the PDN
resonance tracks the droop magnitude. The GA maximizes EM amplitude and
the paper then *validates* the proxy by showing the evolved virus also
maximizes Vmin.

Our sensor derives radiated amplitude from the same current waveform the
PDN sees. The near-field probe picks up the magnetic field of the
current circulating in the package's resonant L-C loop; that tank
current is the die current shaped by the network's impedance peak
(``I_tank(w) ~ |Z(w)| * I_die(w) / (w L)``, and the probe's ``dI/dt``
pickup restores the ``w``), so the radiated spectrum tracks
``|Z(w)| * I_die(w)`` -- the droop spectrum. The receiver chain adds a
band-limit around the resonance and measurement noise, so the proxy is
strong but imperfect, as in reality. ``tests/test_em_proxy.py``
quantifies the correlation.

Measurement noise follows a *counter-based* protocol: read ``r`` of
evaluation ``e`` draws from ``substream(seed, "em-read", e, r)``, where
``e`` is a per-sensor evaluation counter. Each logical measurement
(:meth:`EmSensor.measure` / :meth:`EmSensor.measure_averaged`) consumes
one counter value and :meth:`EmSensor.measure_block` consumes one per
stacked waveform, so a block measurement of N waveforms is bit-identical
to N serial measurements -- the property that lets the GA batch its
fitness evaluations without perturbing a single result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.cpu.execution import BLOCK_SCRATCH_BYTES
from repro.errors import ConfigurationError
from repro.pdn.rlc import DEFAULT_PDN, PdnModel
from repro.rand import DEFAULT_SEED, SeedLike, substream


@dataclass(frozen=True)
class EmReading:
    """One EM measurement: amplitude (arbitrary units) and its frequency."""

    amplitude: float
    peak_freq_hz: float

    def __post_init__(self) -> None:
        if self.amplitude < 0:
            raise ConfigurationError("EM amplitude cannot be negative")


class EmSensor:
    """Near-field EM probe + receiver model.

    Parameters
    ----------
    pdn:
        The PDN whose resonant current loop radiates.
    bandwidth_hz:
        Receiver bandwidth centred on the PDN resonance; spectral lines
        outside it are attenuated (simple Gaussian window).
    noise_floor:
        Additive measurement noise sigma, relative units. Real EM
        measurements are noisy; the GA must average across reads.
    seed:
        Seed of the counter-based measurement-noise protocol. An integer
        (or ``None``) keys the protocol directly; a live generator
        contributes one draw so the derived base stays stable for the
        sensor's lifetime.
    """

    def __init__(self, pdn: PdnModel = None, bandwidth_hz: float = 30e6,
                 noise_floor: float = 0.01, seed: SeedLike = None) -> None:
        if bandwidth_hz <= 0:
            raise ConfigurationError("bandwidth must be positive")
        self.pdn = pdn or PdnModel(DEFAULT_PDN)
        self.bandwidth_hz = bandwidth_hz
        self.noise_floor = noise_floor
        if isinstance(seed, np.random.Generator):
            self._noise_seed = int(seed.integers(0, 2**31 - 1))
        else:
            self._noise_seed = DEFAULT_SEED if seed is None else int(seed)
        #: Evaluation counter of the noise protocol: the next logical
        #: measurement draws its reads from ``(seed, "em-read", counter, r)``.
        self._next_eval = 0
        self._window_cache: Dict[Tuple[int, float], np.ndarray] = {}

    # ------------------------------------------------------------------
    # Deterministic (noise-free) part
    # ------------------------------------------------------------------
    def _receiver_window(self, n: int, sample_rate_hz: float,
                         freqs: np.ndarray) -> np.ndarray:
        """Cached Gaussian receiver window for ``n``-point spectra."""
        key = (n, sample_rate_hz)
        window = self._window_cache.get(key)
        if window is None:
            f_res = self.pdn.params.resonant_freq_hz
            window = np.exp(-0.5 * ((freqs - f_res) / self.bandwidth_hz) ** 2)
            window.setflags(write=False)
            self._window_cache[key] = window
        return window

    def clean_block(self, waveforms: np.ndarray, freq_ghz: float,
                    current_scale_a: float = 10.0
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Noise-free amplitudes + peak frequencies of stacked waveforms.

        ``waveforms`` is one waveform or an ``(N, n)`` stack of
        same-length waveforms; the stack goes through
        ``np.fft.rfft(..., axis=-1)`` against the cached impedance curve
        and receiver window a block of rows at a time (see
        :data:`~repro.cpu.execution.BLOCK_SCRATCH_BYTES`). Per-row results
        are bit-identical at any stack size, so callers may group however
        they like.
        """
        block = np.atleast_2d(np.asarray(waveforms, dtype=float))
        rows, n = block.shape
        sample_rate_hz = freq_ghz * 1e9
        freqs, impedance = self.pdn.spectral_grid(n, sample_rate_hz)
        window = self._receiver_window(n, sample_rate_hz, freqs)
        # Normalize to convenient units (~1 for a full-swing resonant
        # square wave at the resonance).
        scale = self.pdn.peak_impedance_ohm() * current_scale_a
        amplitudes = np.empty(rows)
        peak_idx = np.empty(rows, dtype=np.intp)
        step = max(1, BLOCK_SCRATCH_BYTES // (8 * n))
        for i in range(0, rows, step):
            part = block[i:i + step]
            current = part - part.mean(axis=-1, keepdims=True)
            current *= current_scale_a
            radiated = np.abs(np.fft.rfft(current, axis=-1))
            radiated /= n
            radiated *= 2.0
            radiated *= impedance
            radiated *= window
            peaks = np.argmax(radiated, axis=-1)
            peak_idx[i:i + step] = peaks
            amplitudes[i:i + step] = radiated[np.arange(len(part)), peaks] / scale
        return amplitudes, freqs[peak_idx]

    # ------------------------------------------------------------------
    # Counter-based receiver noise
    # ------------------------------------------------------------------
    def _noise(self, eval_index: int, repeat: int) -> float:
        """Receiver noise of read ``repeat`` within evaluation ``eval_index``."""
        rng = substream(self._noise_seed, "em-read", eval_index, repeat)
        return float(rng.normal(0.0, self.noise_floor))

    def read_amplitude(self, clean_amplitude: float, repeats: int = 1) -> float:
        """Turn a noise-free amplitude into one noisy (averaged) reading.

        Consumes exactly one evaluation counter value; the ``repeats``
        reads are clamped at zero individually (a receiver cannot report
        negative amplitude) and then averaged. Callers that memoize the
        deterministic amplitude (the GA's batched fitness) still consume
        counters one per evaluation, keeping them aligned with a fully
        serial evaluator.
        """
        if repeats < 1:
            raise ConfigurationError("repeats must be >= 1")
        eval_index = self._next_eval
        self._next_eval += 1
        reads = [max(0.0, float(clean_amplitude) + self._noise(eval_index, r))
                 for r in range(repeats)]
        return float(np.mean(reads))

    # ------------------------------------------------------------------
    # Measurement API
    # ------------------------------------------------------------------
    def measure(self, waveform: np.ndarray, freq_ghz: float,
                current_scale_a: float = 10.0) -> EmReading:
        """Measure the radiated amplitude of a current waveform.

        The probe output is ``|Z(w)| * I(w) * G(w)`` -- the tank-current
        pickup shaped by a Gaussian receiver window ``G`` around the PDN
        resonance -- plus additive receiver noise. The reported peak
        frequency comes from the noise-free radiated spectrum.
        """
        amplitudes, peaks = self.clean_block(waveform, freq_ghz, current_scale_a)
        noisy = self.read_amplitude(float(amplitudes[0]), repeats=1)
        return EmReading(amplitude=noisy, peak_freq_hz=float(peaks[0]))

    def measure_averaged(self, waveform: np.ndarray, freq_ghz: float,
                         repeats: int = 4,
                         current_scale_a: float = 10.0) -> EmReading:
        """Average ``repeats`` reads to knock down receiver noise.

        The peak frequency derives from the noise-free radiated spectrum
        (receiver noise only perturbs amplitude), so the reported
        resonance never depends on read ordering.
        """
        if repeats < 1:
            raise ConfigurationError("repeats must be >= 1")
        amplitudes, peaks = self.clean_block(waveform, freq_ghz, current_scale_a)
        noisy = self.read_amplitude(float(amplitudes[0]), repeats=repeats)
        return EmReading(amplitude=noisy, peak_freq_hz=float(peaks[0]))

    def measure_block(self, waveforms: np.ndarray, freq_ghz: float,
                      repeats: int = 1,
                      current_scale_a: float = 10.0) -> List[EmReading]:
        """Measure N stacked same-length waveforms in one spectral pass.

        Bit-identical to N serial :meth:`measure_averaged` calls with the
        same ``repeats`` (and to :meth:`measure` when ``repeats == 1``):
        the deterministic amplitudes come from one batched FFT whose rows
        match the serial computation exactly, and row ``i`` consumes
        evaluation counter ``counter + i`` -- the same noise a serial
        caller would have drawn.
        """
        if repeats < 1:
            raise ConfigurationError("repeats must be >= 1")
        amplitudes, peaks = self.clean_block(waveforms, freq_ghz, current_scale_a)
        return [
            EmReading(amplitude=self.read_amplitude(float(amp), repeats=repeats),
                      peak_freq_hz=float(peak))
            for amp, peak in zip(amplitudes, peaks)
        ]
