"""A generic steady-state genetic algorithm over instruction loops.

The paper (following references [8] and [14]) uses a GA to craft the
instruction loop maximizing radiated EM amplitude. This module provides
the search engine: tournament selection, one-point crossover on loop
bodies, per-gene mutation with an alphabet swap / insert / delete mix,
and elitism. The fitness is injected, so the same engine serves the
EM-guided dI/dt search and any ablation (e.g. droop-oracle fitness).

Fitness is a cohort scorer: it takes a sequence of loops and returns one
score per loop, and the engine scores each generation in one call.
Genome operators draw no randomness during evaluation, so the
population walk depends only on the scores. Scorers are expected to
deduplicate identical genomes within a cohort and memoize the
deterministic part of the fitness across generations;
:class:`repro.viruses.didt.EmFitness` does both, and its counter-based
noise (see :class:`repro.pdn.em.EmSensor`) gives the same scores however
a cohort is split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.cpu.isa import GA_ALPHABET, InstrClass
from repro.cpu.kernels import MAX_LOOP_LEN, MIN_LOOP_LEN, InstructionLoop
from repro.errors import SearchError
from repro.rand import SeedLike, substream


@dataclass(frozen=True)
class GaConfig:
    """Hyperparameters of the genetic search."""

    population_size: int = 40
    generations: int = 30
    tournament_size: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float = 0.06      # per-gene swap probability
    indel_rate: float = 0.10         # per-individual insert/delete probability
    elite_count: int = 2
    init_min_len: int = 16
    init_max_len: int = 96

    def __post_init__(self) -> None:
        if self.population_size < 4:
            raise SearchError("population must hold at least 4 individuals")
        if self.generations < 1:
            raise SearchError("need at least one generation")
        if not 0 <= self.elite_count < self.population_size:
            raise SearchError("elite_count must be below population size")
        if not MIN_LOOP_LEN <= self.init_min_len <= self.init_max_len <= MAX_LOOP_LEN:
            raise SearchError("initial length bounds outside loop limits")


@dataclass(frozen=True)
class Individual:
    """One evaluated genome."""

    loop: InstructionLoop
    fitness: float


@dataclass(frozen=True)
class GaResult:
    """Outcome of a completed search."""

    best: Individual
    history: Tuple[float, ...]        # best fitness per generation
    evaluations: int


class GeneticAlgorithm:
    """Steady-state GA over :class:`InstructionLoop` genomes."""

    def __init__(self,
                 fitness: Callable[[Sequence[InstructionLoop]], Sequence[float]],
                 config: GaConfig = GaConfig(),
                 alphabet: Sequence[InstrClass] = GA_ALPHABET,
                 seed: SeedLike = None) -> None:
        if not alphabet:
            raise SearchError("alphabet cannot be empty")
        self.fitness = fitness
        self.config = config
        self.alphabet = tuple(alphabet)
        self._rng = substream(seed, "ga")
        self._evaluations = 0

    # ------------------------------------------------------------------
    # Genome operators
    # ------------------------------------------------------------------
    def _random_loop(self) -> InstructionLoop:
        length = int(self._rng.integers(self.config.init_min_len,
                                        self.config.init_max_len + 1))
        genes = [self.alphabet[int(i)]
                 for i in self._rng.integers(len(self.alphabet), size=length)]
        return InstructionLoop.of(genes)

    def _crossover(self, a: InstructionLoop, b: InstructionLoop) -> InstructionLoop:
        """One-point crossover, clamped to legal lengths."""
        cut_a = int(self._rng.integers(1, len(a)))
        cut_b = int(self._rng.integers(1, len(b)))
        child = list(a.body[:cut_a]) + list(b.body[cut_b:])
        if len(child) < MIN_LOOP_LEN:
            child = list(a.body[:MIN_LOOP_LEN])
        return InstructionLoop.of(child[:MAX_LOOP_LEN])

    def _mutate(self, loop: InstructionLoop) -> InstructionLoop:
        genes = list(loop.body)
        for i in range(len(genes)):
            if self._rng.random() < self.config.mutation_rate:
                genes[i] = self.alphabet[int(self._rng.integers(len(self.alphabet)))]
        if self._rng.random() < self.config.indel_rate:
            if self._rng.random() < 0.5 and len(genes) < MAX_LOOP_LEN:
                pos = int(self._rng.integers(len(genes) + 1))
                genes.insert(pos, self.alphabet[int(self._rng.integers(len(self.alphabet)))])
            elif len(genes) > MIN_LOOP_LEN:
                genes.pop(int(self._rng.integers(len(genes))))
        return InstructionLoop.of(genes)

    def _evaluate_all(self, loops: Sequence[InstructionLoop]) -> List[Individual]:
        """Score a cohort of genomes in one fitness call.

        Evaluation draws nothing from the GA's own random stream, so
        scoring a whole generation after generating it is operator-order
        identical to scoring each genome as it is made.
        """
        loops = list(loops)
        self._evaluations += len(loops)
        scores = list(self.fitness(loops))
        if len(scores) != len(loops):
            raise SearchError(
                f"fitness returned {len(scores)} scores "
                f"for {len(loops)} genomes")
        return [Individual(loop=loop, fitness=float(score))
                for loop, score in zip(loops, scores)]

    def _tournament(self, population: List[Individual]) -> Individual:
        picks = self._rng.integers(len(population), size=self.config.tournament_size)
        return max((population[int(i)] for i in picks), key=lambda ind: ind.fitness)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def run(self, seed_loops: Optional[Sequence[InstructionLoop]] = None,
            progress: Optional[Callable[[int, Individual], None]] = None) -> GaResult:
        """Run the search; returns the best individual and its history.

        ``seed_loops`` lets callers inject known-good starting points
        (e.g. the previous chip's virus when re-characterizing).
        """
        cfg = self.config
        initial: List[InstructionLoop] = list(seed_loops or [])[:cfg.population_size]
        while len(initial) < cfg.population_size:
            initial.append(self._random_loop())
        population = self._evaluate_all(initial)
        history: List[float] = []
        for generation in range(cfg.generations):
            population.sort(key=lambda ind: ind.fitness, reverse=True)
            history.append(population[0].fitness)
            if progress is not None:
                progress(generation, population[0])
            offspring: List[InstructionLoop] = []
            while cfg.elite_count + len(offspring) < cfg.population_size:
                parent_a = self._tournament(population)
                if self._rng.random() < cfg.crossover_rate:
                    parent_b = self._tournament(population)
                    child_loop = self._crossover(parent_a.loop, parent_b.loop)
                else:
                    child_loop = parent_a.loop
                offspring.append(self._mutate(child_loop))
            population = population[:cfg.elite_count] + self._evaluate_all(offspring)
        population.sort(key=lambda ind: ind.fitness, reverse=True)
        history.append(population[0].fitness)
        return GaResult(best=population[0], history=tuple(history),
                        evaluations=self._evaluations)
