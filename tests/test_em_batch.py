"""Serial/batched equivalence of the EM-fitness pipeline.

The batched pipeline's contract is *bit-identity*: batching is purely an
execution strategy, never a numerics change. These tests pin down every
layer of that contract -- stacked spectral measurement vs serial reads,
the counter-based noise protocol under interleaving, blocked waveform
synthesis vs the profile path, batch-mode GA runs vs serial runs, and
process-sharded searches at any worker count.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.execution import ExecutionModel
from repro.cpu.isa import GA_ALPHABET
from repro.cpu.kernels import InstructionLoop
from repro.experiments.common import RunOptions, map_units
from repro.pdn.em import EmSensor
from repro.rand import substream
from repro.viruses.didt import (
    DidtSearch,
    didt_search_unit,
    random_search_baseline,
)
from repro.viruses.genetic import GaConfig, GeneticAlgorithm

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _random_waveforms(seed: int, count: int, n: int = 256) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((count, n))


def _random_loops(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    return [
        InstructionLoop.of([GA_ALPHABET[int(g)] for g in
                            rng.integers(len(GA_ALPHABET), size=24)])
        for _ in range(count)
    ]


# ----------------------------------------------------------------------
# Sensor layer
# ----------------------------------------------------------------------
@given(seed=seeds, count=st.integers(1, 6), repeats=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_measure_block_matches_serial_bit_for_bit(seed, count, repeats):
    waveforms = _random_waveforms(seed, count)
    serial_sensor = EmSensor(seed=seed)
    block_sensor = EmSensor(seed=seed)
    serial = [serial_sensor.measure_averaged(w, 2.4, repeats=repeats)
              for w in waveforms]
    block = block_sensor.measure_block(waveforms, 2.4, repeats=repeats)
    assert len(block) == count
    for a, b in zip(serial, block):
        assert a.amplitude == b.amplitude
        assert a.peak_freq_hz == b.peak_freq_hz


def test_measure_block_single_repeat_matches_measure():
    waveforms = _random_waveforms(7, 4)
    serial_sensor = EmSensor(seed=7)
    block_sensor = EmSensor(seed=7)
    serial = [serial_sensor.measure(w, 2.4) for w in waveforms]
    block = block_sensor.measure_block(waveforms, 2.4, repeats=1)
    assert [r.amplitude for r in serial] == [r.amplitude for r in block]


def test_counter_protocol_survives_interleaving():
    """A block of N consumes the same counters as N serial measurements,
    so mixed serial/block call sequences stay aligned."""
    waveforms = _random_waveforms(11, 3)
    serial_sensor = EmSensor(seed=3)
    mixed_sensor = EmSensor(seed=3)
    serial = [serial_sensor.measure_averaged(w, 2.4, repeats=2)
              for w in waveforms]
    mixed = mixed_sensor.measure_block(waveforms[:2], 2.4, repeats=2)
    mixed.append(mixed_sensor.measure_averaged(waveforms[2], 2.4, repeats=2))
    assert [r.amplitude for r in serial] == [r.amplitude for r in mixed]


def test_peak_freq_is_noise_free_and_repeat_invariant():
    """Satellite fix: the reported resonance comes from the noise-free
    spectrum, so it cannot depend on how many reads were averaged."""
    waveform = _random_waveforms(5, 1)[0]
    one = EmSensor(seed=9).measure_averaged(waveform, 2.4, repeats=1)
    many = EmSensor(seed=9).measure_averaged(waveform, 2.4, repeats=8)
    assert one.peak_freq_hz == many.peak_freq_hz


def test_measure_block_validates_repeats():
    from repro.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        EmSensor().measure_block(np.ones((2, 128)), 2.4, repeats=0)


@pytest.mark.parametrize("count", [0, 1, 7])
def test_read_amplitude_consumes_one_counter_per_entry(count):
    sensor = EmSensor(seed=5)
    sensor.read_amplitude(np.full(count, 0.5), repeats=3)
    assert sensor._next_eval == count
    # The next read is the one a sensor that skipped ``count`` evaluations
    # makes next.
    reference = EmSensor(seed=5)
    reference._next_eval = count
    assert (sensor.read_amplitude([0.5], repeats=2).tolist()
            == reference.read_amplitude([0.5], repeats=2).tolist())


def test_read_amplitude_matches_serial_measure_averaged():
    waveforms = _random_waveforms(17, 5)
    clean, _ = EmSensor(seed=4).clean_block(waveforms, 2.4)
    batched = EmSensor(seed=4).read_amplitude(clean, repeats=3)
    serial_sensor = EmSensor(seed=4)
    serial = [serial_sensor.measure_averaged(w, 2.4, repeats=3).amplitude
              for w in waveforms]
    assert batched.tolist() == serial


def test_read_amplitude_clamps_each_read_before_the_mean():
    from repro.rand import substream
    sensor = EmSensor(seed=8, noise_floor=0.05)
    clean = [0.0, 0.01, 0.02]
    got = sensor.read_amplitude(clean, repeats=4).tolist()
    raw = [[c + substream(sensor._noise_seed, "em-read", e, r).normal(0.0, 0.05)
            for r in range(4)] for e, c in enumerate(clean)]
    assert any(read < 0.0 for reads in raw for read in reads)
    assert any(min(reads) < 0.0 < max(reads) for reads in raw)
    want = [float(np.mean([max(0.0, read) for read in reads])) for reads in raw]
    assert got == want
    assert all(value >= 0.0 for value in got)


def test_read_amplitude_validates_repeats_without_consuming_a_counter():
    from repro.errors import ConfigurationError
    sensor = EmSensor(seed=2)
    with pytest.raises(ConfigurationError):
        sensor.read_amplitude([0.3, 0.4], repeats=0)
    assert sensor._next_eval == 0


# ----------------------------------------------------------------------
# Execution layer
# ----------------------------------------------------------------------
def test_waveform_block_rows_match_profile():
    loops = _random_loops(2, 5)
    model = ExecutionModel(window_cycles=1024)
    block = model.waveform_block(loops)
    assert block.shape == (5, 1024)
    for row, loop in zip(block, loops):
        assert np.array_equal(row, model.profile(loop).waveform)


def test_waveform_block_empty():
    model = ExecutionModel(window_cycles=1024)
    assert model.waveform_block([]).shape == (0, 1024)


# ----------------------------------------------------------------------
# GA layer
# ----------------------------------------------------------------------
@pytest.mark.slow
@given(seed=seeds)
@settings(max_examples=20, deadline=None)
def test_ga_batch_run_reproduces_serial_result(seed):
    config = GaConfig(population_size=8, generations=2)

    def evolve(batched):
        fitness = DidtSearch(config=config, seed=seed).fitness
        return GeneticAlgorithm(
            fitness, config=config, seed=substream(seed, "didt-ga"),
            batch_fitness=fitness.batch if batched else None).run()

    result_b, result_s = evolve(True), evolve(False)
    assert result_b.best == result_s.best
    assert result_b.history == result_s.history
    assert result_b.evaluations == result_s.evaluations


def test_batch_fitness_dedups_but_noise_stays_per_eval():
    """Duplicate genomes share one deterministic evaluation yet still
    get independent noise draws -- exactly as a serial evaluator."""
    loop = _random_loops(4, 1)[0]
    search = DidtSearch(seed=21)
    batch = search.fitness.batch([loop, loop, loop])
    serial_search = DidtSearch(seed=21)
    serial = [serial_search.fitness(loop) for _ in range(3)]
    assert batch == serial
    assert len(set(batch)) == 3  # distinct noise per evaluation


def test_random_search_invariant_to_batch_size():
    small = random_search_baseline(seed=13, evaluations=60, batch_size=5)
    large = random_search_baseline(seed=13, evaluations=60, batch_size=64)
    assert small == large


# ----------------------------------------------------------------------
# Process-sharding layer
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_sharded_searches_bit_identical_at_any_jobs():
    tasks = [(101, 3, 8, 3), (202, 3, 8, 3)]
    inline = map_units(didt_search_unit, tasks, 1, RunOptions()).unwrap()
    pooled = map_units(didt_search_unit, tasks, 2, RunOptions()).unwrap()
    assert inline == pooled


@pytest.mark.slow
def test_fig7_result_identical_at_any_jobs():
    from repro.experiments.fig7_interchip import run_figure7
    serial = run_figure7(seed=77, repetitions=3, generations=3, population=8)
    pooled = run_figure7(seed=77, repetitions=3, generations=3, population=8,
                         jobs=3)
    assert serial == pooled
