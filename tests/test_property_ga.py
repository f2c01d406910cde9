"""Property-based tests of the GA operators (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.cpu.isa import GA_ALPHABET, InstrClass
from repro.cpu.kernels import MAX_LOOP_LEN, MIN_LOOP_LEN, InstructionLoop
from repro.viruses.genetic import GaConfig, GeneticAlgorithm
import pytest

#: Heavy module: deselected from the smoke tier (``pytest -m "not slow"``).
pytestmark = pytest.mark.slow


instr = st.sampled_from(list(InstrClass))
loop_bodies = st.lists(instr, min_size=MIN_LOOP_LEN, max_size=64)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def make_ga(seed: int) -> GeneticAlgorithm:
    return GeneticAlgorithm(lambda loops: [0.0] * len(loops),
                            config=GaConfig(population_size=8, generations=1),
                            seed=seed)


@given(a=loop_bodies, b=loop_bodies, seed=seeds)
@settings(max_examples=300, deadline=None)
def test_crossover_preserves_legality_and_genes(a, b, seed):
    ga = make_ga(seed)
    child = ga._crossover(InstructionLoop.of(a), InstructionLoop.of(b))
    assert MIN_LOOP_LEN <= len(child) <= MAX_LOOP_LEN
    # Every gene in the child came from one of the parents' alphabets.
    parent_genes = set(a) | set(b)
    assert set(child.body) <= parent_genes


@given(body=loop_bodies, seed=seeds)
@settings(max_examples=300, deadline=None)
def test_mutation_preserves_legality(body, seed):
    ga = make_ga(seed)
    mutated = ga._mutate(InstructionLoop.of(body))
    assert MIN_LOOP_LEN <= len(mutated) <= MAX_LOOP_LEN
    assert set(mutated.body) <= set(GA_ALPHABET)


@given(body=loop_bodies, seed=seeds)
@settings(max_examples=200, deadline=None)
def test_mutation_bounded_length_change(body, seed):
    """Mutation inserts/deletes at most one gene per call."""
    ga = make_ga(seed)
    mutated = ga._mutate(InstructionLoop.of(body))
    assert abs(len(mutated) - len(body)) <= 1


@given(seed=seeds)
@settings(max_examples=100, deadline=None)
def test_random_loops_legal(seed):
    ga = make_ga(seed)
    loop = ga._random_loop()
    assert MIN_LOOP_LEN <= len(loop) <= MAX_LOOP_LEN
    assert set(loop.body) <= set(GA_ALPHABET)


@given(seed=seeds)
@settings(max_examples=50, deadline=None)
def test_tournament_never_beats_best(seed):
    """Tournament selection returns a member, at most the best one."""
    from repro.viruses.genetic import Individual
    ga = make_ga(seed)
    population = [
        Individual(InstructionLoop.of([InstrClass.NOP] * (2 + i)), float(i))
        for i in range(8)
    ]
    winner = ga._tournament(population)
    assert winner in population
    assert winner.fitness <= max(ind.fitness for ind in population)
