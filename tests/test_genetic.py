"""The GA engine on synthetic fitness landscapes."""

import pytest

from repro.cpu.isa import InstrClass
from repro.cpu.kernels import InstructionLoop
from repro.errors import SearchError
from repro.viruses.genetic import GaConfig, GeneticAlgorithm


def count_fitness(target: InstrClass):
    """Toy cohort scorer: each loop's fraction of one target class."""
    def fitness(loops):
        return [sum(1 for k in loop if k is target) / len(loop)
                for loop in loops]
    return fitness


def test_ga_optimizes_simple_objective():
    ga = GeneticAlgorithm(count_fitness(InstrClass.SIMD),
                          config=GaConfig(population_size=24, generations=20),
                          seed=3)
    result = ga.run()
    assert result.best.fitness > 0.8


def test_history_is_monotone_with_elitism():
    ga = GeneticAlgorithm(count_fitness(InstrClass.NOP),
                          config=GaConfig(population_size=16, generations=12),
                          seed=5)
    result = ga.run()
    for a, b in zip(result.history, result.history[1:]):
        assert b >= a - 1e-12  # elites preserve the best


def test_seed_loops_bootstrap_search():
    seed_loop = InstructionLoop.of([InstrClass.FP_FMA] * 32)
    ga = GeneticAlgorithm(count_fitness(InstrClass.FP_FMA),
                          config=GaConfig(population_size=12, generations=2),
                          seed=1)
    result = ga.run(seed_loops=[seed_loop])
    assert result.best.fitness == pytest.approx(1.0)


def test_deterministic_given_seed():
    config = GaConfig(population_size=12, generations=6)
    a = GeneticAlgorithm(count_fitness(InstrClass.SIMD), config, seed=7).run()
    b = GeneticAlgorithm(count_fitness(InstrClass.SIMD), config, seed=7).run()
    assert a.best.loop == b.best.loop
    assert a.history == b.history


def test_different_seeds_explore_differently():
    config = GaConfig(population_size=12, generations=4)
    a = GeneticAlgorithm(count_fitness(InstrClass.SIMD), config, seed=1).run()
    b = GeneticAlgorithm(count_fitness(InstrClass.SIMD), config, seed=2).run()
    assert a.best.loop != b.best.loop or a.history != b.history


def test_evaluation_count_tracked():
    config = GaConfig(population_size=10, generations=3, elite_count=2)
    ga = GeneticAlgorithm(count_fitness(InstrClass.SIMD), config, seed=1)
    result = ga.run()
    # Initial population + (pop - elites) children per generation.
    assert result.evaluations == 10 + 3 * 8


def test_progress_callback_invoked():
    seen = []
    ga = GeneticAlgorithm(count_fitness(InstrClass.SIMD),
                          GaConfig(population_size=8, generations=4), seed=1)
    ga.run(progress=lambda gen, best: seen.append(gen))
    assert seen == [0, 1, 2, 3]


def test_genome_lengths_stay_legal():
    from repro.cpu.kernels import MAX_LOOP_LEN, MIN_LOOP_LEN
    lengths = []
    ga = GeneticAlgorithm(lambda loops: [float(len(loop)) for loop in loops],
                          GaConfig(population_size=16, generations=10), seed=2)
    result = ga.run(progress=lambda g, b: lengths.append(len(b.loop)))
    assert all(MIN_LOOP_LEN <= n <= MAX_LOOP_LEN for n in lengths)


def test_config_validation():
    with pytest.raises(SearchError):
        GaConfig(population_size=2)
    with pytest.raises(SearchError):
        GaConfig(generations=0)
    with pytest.raises(SearchError):
        GaConfig(elite_count=40, population_size=40)
    with pytest.raises(SearchError):
        GeneticAlgorithm(lambda loops: [0.0] * len(loops), alphabet=[])


def test_fitness_must_score_every_genome():
    ga = GeneticAlgorithm(lambda loops: [0.0] * (len(loops) - 1),
                          GaConfig(population_size=8, generations=1), seed=1)
    with pytest.raises(SearchError, match="7 scores for 8 genomes"):
        ga.run()
