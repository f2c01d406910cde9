"""Behavioural chip model: per-core Vmin and run-outcome evaluation.

A :class:`Chip` combines a process corner's calibrated parameters with a
small amount of seeded manufacturing noise (so two TTT chips are similar
but not identical) and answers the two questions the characterization
framework asks of hardware:

1. *What is core C's Vmin for workload W at frequency F?* -- an oracle
   used by tests and analysis code.
2. *What happens if I actually run W on C at (V, F)?* -- the sampled,
   noisy behaviour the campaign executor observes: pass, or a failure
   mode drawn from the proximity to Vmin (matching how real undervolting
   campaigns see CEs first, then UEs/SDCs, then crashes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.cpu.outcomes import RunOutcome
from repro.errors import TopologyError
from repro.rand import SeedLike, substream
from repro.soc.corners import CORNER_PARAMS, CornerParams, ProcessCorner
from repro.soc.topology import NOMINAL_FREQ_GHZ, NUM_CORES, CoreId

#: Width (mV) of the stochastic failure onset band above intrinsic Vmin.
#: Within [Vmin, Vmin + band) runs fail probabilistically -- this models
#: the run-to-run variability that forces the paper to repeat each
#: undervolting experiment ten times.
FAILURE_ONSET_BAND_MV = 6.0

#: Below Vmin by more than this, the part no longer produces correctable
#: errors -- it crashes or hangs outright.
HARD_CRASH_DEPTH_MV = 12.0

#: Integer outcome codes used by the batched sampling path, ordered by
#: severity so that ``max`` over cores picks the worst outcome of a
#: repetition. ``OUTCOME_FROM_CODE[code]`` maps back to the enum.
OUTCOME_FROM_CODE: tuple = (
    RunOutcome.CORRECT,
    RunOutcome.CORRECTED_ERROR,
    RunOutcome.UNCORRECTED_ERROR,
    RunOutcome.SDC,
    RunOutcome.CRASH,
    RunOutcome.HANG,
)

#: Reverse map: outcome enum -> severity-ordered integer code.
CODE_FROM_OUTCOME = {outcome: code for code, outcome in enumerate(OUTCOME_FROM_CODE)}

_CODE_CORRECT, _CODE_CE, _CODE_UE, _CODE_SDC, _CODE_CRASH, _CODE_HANG = range(6)

#: Cap on the per-chip Vmin memo; cleared wholesale when exceeded so
#: adversarial swing sweeps (GA populations) cannot grow it unboundedly.
_VMIN_CACHE_LIMIT = 65536


def _classify_uniforms(margin: float, uniforms: np.ndarray,
                       sdc_bias: float) -> np.ndarray:
    """Vectorized outcome classification for one operating margin.

    ``uniforms`` holds one U(0,1) draw per repetition; the branch taken
    (onset band / mid band / deep violation) is a pure function of the
    margin, so a whole column of repetitions classifies in one numpy
    pass. Bit-compatible with the scalar :meth:`Chip.observe_run` logic:
    the same draw produces the same outcome.
    """
    if margin >= 0.0:
        # Onset band: probabilistic correctable errors only.
        fail_p = 1.0 - margin / FAILURE_ONSET_BAND_MV
        return np.where(uniforms < 0.5 * fail_p, _CODE_CE, _CODE_CORRECT)
    depth = -margin
    if depth >= HARD_CRASH_DEPTH_MV:
        return np.where(uniforms < 0.3, _CODE_HANG, _CODE_CRASH)
    crash_p = depth / HARD_CRASH_DEPTH_MV * 0.5
    codes = np.full(uniforms.shape, _CODE_UE, dtype=np.int64)
    codes[uniforms < crash_p + (1.0 - crash_p) * sdc_bias] = _CODE_SDC
    codes[uniforms < crash_p] = _CODE_CRASH
    return codes


@dataclass(frozen=True)
class CoreVminModel:
    """Vmin decomposition for one core -- the oracle view.

    ``vmin_mv = v_crit + core_offset + droop(swing)`` (all mV).
    """

    core: CoreId
    v_crit_mv: float
    core_offset_mv: float

    def vmin_mv(self, droop_mv: float) -> float:
        """Total Vmin for a workload producing ``droop_mv`` of noise."""
        return self.v_crit_mv + self.core_offset_mv + droop_mv


class Chip:
    """One physical chip instance of a given process corner.

    Parameters
    ----------
    corner:
        Which sigma class the part belongs to.
    seed:
        Seed for the part's manufacturing noise (+-1.5 mV per core) and
        for the stochastic failure behaviour observed by runs. Chips
        built via :func:`repro.soc.xgene2.build_reference_chips` use
        fixed seeds so the headline experiments are reproducible.
    serial:
        Free-form part identifier carried into logs.
    jitter_sigma_mv:
        Standard deviation of per-core manufacturing noise added on top
        of the corner's calibrated offsets. The paper's three reference
        parts are built with 0.0 (their offsets *are* the calibration);
        additional parts of the same corner sample this noise.
    """

    def __init__(self, corner: ProcessCorner, seed: SeedLike = None,
                 serial: Optional[str] = None,
                 jitter_sigma_mv: float = 0.8) -> None:
        self.corner = corner
        self.params: CornerParams = CORNER_PARAMS[corner]
        self.serial = serial or f"{corner.value}-0"
        self._noise_rng = substream(seed, f"chip-noise-{self.serial}")
        self._run_rng = substream(seed, f"chip-runs-{self.serial}")
        # Manufacturing noise is frozen at construction: the same chip
        # answers the same oracle queries forever.
        if jitter_sigma_mv > 0:
            jitter = self._noise_rng.normal(0.0, jitter_sigma_mv, size=NUM_CORES)
            jitter -= jitter.min()  # keep the strongest core's offset at 0
        else:
            jitter = np.zeros(NUM_CORES)
        self._core_offsets_mv = tuple(
            base + extra for base, extra in zip(self.params.core_offsets_mv, jitter)
        )
        # Memo of (core, swing, freq) -> Vmin. The decomposition is
        # frozen at construction, so entries never invalidate.
        self._vmin_cache: dict = {}

    # ------------------------------------------------------------------
    # Oracle interface
    # ------------------------------------------------------------------
    def core_offset_mv(self, core: CoreId) -> float:
        """This part's Vmin offset for ``core`` (mV, 0 = strongest)."""
        return self._core_offsets_mv[core.linear]

    def core_model(self, core: CoreId, freq_ghz: float = NOMINAL_FREQ_GHZ) -> CoreVminModel:
        """The Vmin decomposition for ``core`` at ``freq_ghz``."""
        return CoreVminModel(
            core=core,
            v_crit_mv=self.params.v_crit_at(freq_ghz),
            core_offset_mv=self.core_offset_mv(core),
        )

    def droop_mv(self, swing: float, freq_ghz: float = NOMINAL_FREQ_GHZ) -> float:
        """Droop (mV) for a normalized current swing at ``freq_ghz``.

        Droop scales with frequency because the excitation current is
        proportional to switching rate.
        """
        freq_factor = freq_ghz / NOMINAL_FREQ_GHZ
        return self.params.droop_mv(swing) * freq_factor

    def vmin_mv(self, core: CoreId, swing: float,
                freq_ghz: float = NOMINAL_FREQ_GHZ) -> float:
        """True Vmin (mV) of ``core`` for a workload with ``swing``.

        Memoized per ``(core, swing, freq)``: the decomposition is fixed
        at construction, and the campaign engine queries the same few
        operating points thousands of times per voltage ladder.
        """
        key = (core.linear, swing, freq_ghz)
        cached = self._vmin_cache.get(key)
        if cached is None:
            model = self.core_model(core, freq_ghz)
            cached = model.vmin_mv(self.droop_mv(swing, freq_ghz))
            if len(self._vmin_cache) >= _VMIN_CACHE_LIMIT:
                self._vmin_cache.clear()
            self._vmin_cache[key] = cached
        return cached

    def strongest_core(self, freq_ghz: float = NOMINAL_FREQ_GHZ) -> CoreId:
        """The paper's "most robust core": lowest offset on this part."""
        best = min(range(NUM_CORES), key=lambda i: self._core_offsets_mv[i])
        return CoreId.from_linear(best)

    def weakest_cores(self, count: int = 2) -> List[CoreId]:
        """The ``count`` cores with the highest Vmin offsets."""
        if not 1 <= count <= NUM_CORES:
            raise TopologyError(f"count {count} outside 1..{NUM_CORES}")
        order = sorted(range(NUM_CORES),
                       key=lambda i: self._core_offsets_mv[i], reverse=True)
        return [CoreId.from_linear(i) for i in order[:count]]

    # ------------------------------------------------------------------
    # Sampled run behaviour (what the campaign executor observes)
    # ------------------------------------------------------------------
    def observe_run(self, core: CoreId, swing: float, voltage_mv: float,
                    freq_ghz: float = NOMINAL_FREQ_GHZ,
                    sdc_bias: float = 0.25,
                    rng: Optional[np.random.Generator] = None) -> RunOutcome:
        """Sample the outcome of one benchmark run at an operating point.

        The failure mode depends on how far below the true Vmin the
        supply sits, mirroring the progression undervolting studies
        report: shallow violations manifest as ECC-correctable cache
        errors, deeper ones as uncorrectable errors or silent data
        corruption, and deep violations crash or hang the part.

        ``sdc_bias`` is the probability that a mid-band failure escapes
        detection (SDC) rather than being flagged uncorrectable; cache-
        resident workloads have lower bias than datapath-heavy ones.
        """
        rng = rng if rng is not None else self._run_rng
        vmin = self.vmin_mv(core, swing, freq_ghz)
        margin = voltage_mv - vmin
        if margin >= FAILURE_ONSET_BAND_MV:
            return RunOutcome.CORRECT
        if margin >= 0.0:
            # Inside the onset band failures are probabilistic; the
            # closer to Vmin the likelier. A failing run here is almost
            # always a correctable cache-SRAM error.
            fail_p = 1.0 - margin / FAILURE_ONSET_BAND_MV
            if rng.random() < 0.5 * fail_p:
                return RunOutcome.CORRECTED_ERROR
            return RunOutcome.CORRECT
        depth = -margin
        if depth >= HARD_CRASH_DEPTH_MV:
            return RunOutcome.HANG if rng.random() < 0.3 else RunOutcome.CRASH
        # Mid-band: detected-uncorrectable vs silent corruption vs an
        # early crash, weighted towards detection.
        roll = rng.random()
        crash_p = depth / HARD_CRASH_DEPTH_MV * 0.5
        if roll < crash_p:
            return RunOutcome.CRASH
        if roll < crash_p + (1.0 - crash_p) * sdc_bias:
            return RunOutcome.SDC
        return RunOutcome.UNCORRECTED_ERROR

    def observe_run_block(self, cores: Sequence[CoreId], swing: float,
                          voltage_mv: float,
                          freq_ghz: float = NOMINAL_FREQ_GHZ,
                          repetitions: int = 1, sdc_bias: float = 0.25,
                          rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Sample a whole characterization run as one outcome-code matrix.

        Returns an ``(repetitions, len(cores))`` array of severity codes
        (see :data:`OUTCOME_FROM_CODE`). The draw order reproduces the
        scalar nested loop exactly -- repetition-major, core-minor, one
        uniform per core whose margin sits below the onset-band ceiling
        -- so the batched path is bit-identical to looping
        :meth:`observe_run` over repetitions and cores.
        """
        rng = rng if rng is not None else self._run_rng
        margins = [voltage_mv - self.vmin_mv(core, swing, freq_ghz)
                   for core in cores]
        codes = np.zeros((repetitions, len(cores)), dtype=np.int64)
        drawing = [index for index, margin in enumerate(margins)
                   if margin < FAILURE_ONSET_BAND_MV]
        if drawing and repetitions:
            uniforms = rng.random(repetitions * len(drawing))
            uniforms = uniforms.reshape(repetitions, len(drawing))
            for column, index in enumerate(drawing):
                codes[:, index] = _classify_uniforms(
                    margins[index], uniforms[:, column], sdc_bias)
        return codes
