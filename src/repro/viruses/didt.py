"""EM-guided dI/dt virus search (paper Section III.C / IV.B).

The X-Gene2 offers no fine-grained voltage probes, so the paper drives
its GA with the amplitude of CPU electromagnetic emanations: maximizing
EM amplitude maximizes voltage noise, which is then *validated* by Vmin
testing (the virus shows the highest Vmin of any workload, Figure 6).

This module wires the GA engine to the EM sensor as fitness, packages
the evolved loop as a :class:`DidtVirus` workload-like object, and
provides the random-search baseline used by the ablation bench.

Fitness evaluation is batched end to end: :class:`EmFitness` decomposes
each evaluation into a deterministic (noise-free) amplitude -- memoized
across generations and deduplicated within a batch -- plus
counter-based receiver noise, so scoring a whole GA generation costs
one stacked waveform synthesis and one batched FFT while remaining
bit-identical to the serial path. Independent searches (per-chip
Figure 7 arms, ablation arms) ship as picklable work units through
:func:`repro.experiments.common.map_units`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cpu.execution import ExecutionModel
from repro.cpu.isa import InstrClass
from repro.cpu.kernels import InstructionLoop
from repro.errors import SearchError
from repro.pdn.droop import analyze_loop
from repro.pdn.em import EmSensor
from repro.pdn.rlc import DEFAULT_PDN, PdnModel
from repro.rand import SeedLike, substream
from repro.viruses.genetic import GaConfig, GaResult, GeneticAlgorithm, Individual

#: Execution window used during fitness evaluation; long enough for a
#: stable spectral estimate at the default PDN resonance.
FITNESS_WINDOW_CYCLES = 4096


@dataclass(frozen=True)
class DidtVirus:
    """An evolved voltage-noise virus ready to run as a workload."""

    loop: InstructionLoop
    em_amplitude: float
    resonant_swing: float
    droop_mv: float
    generations: int
    evaluations: int

    @property
    def name(self) -> str:
        return "em-didt-virus"

    def summary(self) -> str:
        return (f"{self.name}: swing={self.resonant_swing:.3f} "
                f"droop={self.droop_mv:.1f}mV em={self.em_amplitude:.4f} "
                f"({self.loop.describe()})")


class EmFitness:
    """Batched EM-amplitude fitness with a memoized deterministic part.

    A fitness evaluation decomposes as ``mean over r of
    max(0, clean(loop) + noise(e, r))`` where ``clean`` is the noise-free
    radiated amplitude (a pure function of the genome) and the noise of
    read ``r`` within evaluation ``e`` comes from the sensor's
    counter-based protocol. ``clean`` is cached across generations and
    computed once per distinct genome within a batch, keyed by the
    genome's byte code (:attr:`InstructionLoop.code`); noise is always
    drawn per evaluation, so serial (:meth:`__call__`) and batched
    (:meth:`batch`) scoring consume identical counters and return
    identical values.
    """

    def __init__(self, exec_model: ExecutionModel, sensor: EmSensor,
                 freq_ghz: float, repeats: int) -> None:
        self.exec_model = exec_model
        self.sensor = sensor
        self.freq_ghz = freq_ghz
        self.repeats = repeats
        #: Noise-free amplitude by genome, keyed by ``InstructionLoop.code``.
        self._clean_cache: Dict[bytes, float] = {}

    def __call__(self, loop: InstructionLoop) -> float:
        """Serial entry point: one evaluation, one counter value."""
        return self.batch([loop])[0]

    def batch(self, loops: Sequence[InstructionLoop]) -> List[float]:
        """Score a whole cohort in one stacked waveform + FFT pass."""
        loops = list(loops)
        cache = self._clean_cache
        missing: Dict[bytes, InstructionLoop] = {}
        for loop in loops:
            if loop.code not in cache:
                missing.setdefault(loop.code, loop)
        if missing:
            block = self.exec_model.waveform_block(list(missing.values()))
            amplitudes, _ = self.sensor.clean_block(block, self.freq_ghz)
            cache.update(zip(missing, amplitudes.tolist()))
        clean = [cache[loop.code] for loop in loops]
        return self.sensor.read_amplitude(clean, repeats=self.repeats).tolist()


class DidtSearch:
    """GA search for the maximum-EM instruction loop.

    Parameters
    ----------
    pdn:
        The power-delivery network of the target chip.
    freq_ghz:
        Core clock during the search.
    em_repeats:
        EM reads averaged per fitness evaluation (noise suppression).
    config:
        GA hyperparameters.
    seed:
        Seed for both the GA and the EM sensor noise.
    """

    def __init__(self, pdn: Optional[PdnModel] = None, freq_ghz: float = 2.4,
                 em_repeats: int = 3, config: GaConfig = GaConfig(),
                 seed: SeedLike = None) -> None:
        self.pdn = pdn or PdnModel(DEFAULT_PDN)
        self.freq_ghz = freq_ghz
        self.sensor = EmSensor(pdn=self.pdn, seed=substream(seed, "didt-em"))
        self.em_repeats = em_repeats
        self.config = config
        self._seed = seed
        self._exec_model = ExecutionModel(freq_ghz=freq_ghz,
                                          window_cycles=FITNESS_WINDOW_CYCLES)
        self.fitness = EmFitness(self._exec_model, self.sensor,
                                 freq_ghz, em_repeats)

    def em_fitness(self, loop: InstructionLoop) -> float:
        """Averaged EM amplitude of a candidate loop (serial entry)."""
        return self.fitness(loop)

    def run(self, polish: bool = True) -> Tuple[DidtVirus, GaResult]:
        """Evolve a virus; returns it plus the raw GA result.

        With ``polish=True`` (the default) the GA winner goes through a
        local refinement pass: structured square-wave candidates with
        half-periods bracketing the PDN resonance are evaluated with the
        same EM fitness, and the best stimulus overall wins. This
        GA + local-search hybrid converges to the full resonant swing
        far more reliably than the GA alone (quantified by the GA
        ablation bench).

        The GA scores each generation in one batched fitness call,
        bit-identical to scoring it serially (``tests/test_em_batch.py``
        asserts it).
        """
        ga = GeneticAlgorithm(self.fitness, config=self.config,
                              seed=substream(self._seed, "didt-ga"),
                              batch_fitness=self.fitness.batch)
        result = ga.run()
        best = result.best
        if polish:
            for candidate in self._polish_candidates():
                fitness = self.fitness(candidate)
                if fitness > best.fitness:
                    best = Individual(loop=candidate, fitness=fitness)
        polished = GaResult(best=best, history=result.history + (best.fitness,),
                            evaluations=result.evaluations)
        return self._package(polished), polished

    def _polish_candidates(self):
        """Square waves with half-periods around the PDN resonance.

        Candidates whose bodies would exceed the loop-length limit (a
        legitimately unbuildable stimulus at low resonant frequencies)
        are skipped via an explicit bound check; only
        :class:`~repro.errors.SearchError` is tolerated beyond that, so
        real bugs in square-wave construction surface instead of being
        swallowed.
        """
        from repro.cpu.isa import spec_of
        from repro.cpu.kernels import MAX_LOOP_LEN, square_wave_loop
        res_cycles = self.freq_ghz * 1e9 / self.pdn.params.resonant_freq_hz
        for scale in (0.8, 0.9, 1.0, 1.1, 1.25):
            half = max(1, int(round(res_cycles * scale / 2)))
            high = max(1, round(half / spec_of(InstrClass.SIMD).cycles))
            low = max(1, round(half / spec_of(InstrClass.NOP).cycles))
            if high + low > MAX_LOOP_LEN:
                continue
            try:
                yield square_wave_loop(InstrClass.SIMD, InstrClass.NOP, half)
            except SearchError:
                continue

    def _package(self, result: GaResult) -> DidtVirus:
        analysis = analyze_loop(result.best.loop, pdn=self.pdn,
                                freq_ghz=self.freq_ghz,
                                window_cycles=FITNESS_WINDOW_CYCLES)
        return DidtVirus(
            loop=result.best.loop,
            em_amplitude=result.best.fitness,
            resonant_swing=analysis.resonant_swing,
            droop_mv=analysis.droop_mv,
            generations=len(result.history) - 1,
            evaluations=result.evaluations,
        )


def evolve_didt_virus(seed: SeedLike = None, generations: int = 30,
                      population: int = 40,
                      pdn: Optional[PdnModel] = None) -> DidtVirus:
    """Convenience wrapper: evolve a virus with default settings."""
    config = GaConfig(population_size=population, generations=generations)
    search = DidtSearch(pdn=pdn, config=config, seed=seed)
    virus, _ = search.run()
    return virus


def random_search_baseline(seed: SeedLike = None, evaluations: int = 1200,
                           pdn: Optional[PdnModel] = None,
                           batch_size: int = 64) -> DidtVirus:
    """Ablation baseline: pure random search with the same budget.

    Draws random loops and keeps the best by the same EM fitness; used
    by ``benchmarks/test_bench_ablation_ga.py`` to quantify the GA's
    advantage. Evaluation is batched ``batch_size`` loops at a time;
    under the counter-based noise protocol the result is identical at
    any batch size.
    """
    search = DidtSearch(pdn=pdn, seed=seed)
    ga = GeneticAlgorithm(search.fitness, seed=substream(seed, "rand-baseline"))
    best_loop, best_fit = None, float("-inf")
    remaining = evaluations
    while remaining > 0:
        chunk = [ga._random_loop() for _ in range(min(batch_size, remaining))]
        for loop, fit in zip(chunk, search.fitness.batch(chunk)):
            if fit > best_fit:
                best_loop, best_fit = loop, fit
        remaining -= len(chunk)
    result = GaResult(best=Individual(best_loop, best_fit),
                      history=(best_fit,), evaluations=evaluations)
    return search._package(result)


# ----------------------------------------------------------------------
# Picklable work units for the process-parallel engine
# ----------------------------------------------------------------------

#: One sharded GA-search arm: (integer seed, generations, population,
#: em_repeats). The default PDN is rebuilt inside the unit, so the task
#: tuple stays tiny on the wire.
GaSearchTask = Tuple[int, int, int, int]

#: One sharded random-search arm: (integer seed, evaluation budget).
RandomSearchTask = Tuple[int, int]


def didt_search_unit(task: GaSearchTask) -> Tuple[DidtVirus, GaResult]:
    """Worker body: one full EM-guided GA search, self-contained.

    Rebuilds the search from the integer seed, so the arm computes the
    same virus in any process, at any worker count, in any order --
    the guarantee :func:`repro.experiments.common.map_units` relies on.
    Because the unit is a pure function of its task tuple, the
    supervised engine (:mod:`repro.core.supervisor`) can also re-issue
    it on a fresh worker after a real worker crash or a deadline hang
    and still converge on a bit-identical virus; a GA arm that
    keeps failing is quarantined as a typed
    :class:`~repro.core.supervisor.UnitFailure` instead of wedging the
    whole search.
    """
    seed, generations, population, em_repeats = task
    config = GaConfig(population_size=population, generations=generations)
    search = DidtSearch(config=config, em_repeats=em_repeats, seed=seed)
    return search.run()


def random_search_unit(task: RandomSearchTask) -> DidtVirus:
    """Worker body: one random-search ablation arm, self-contained."""
    seed, evaluations = task
    return random_search_baseline(seed=seed, evaluations=evaluations)
