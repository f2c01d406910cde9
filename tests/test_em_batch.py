"""Serial/batched equivalence of the EM-fitness pipeline.

The batched pipeline's contract is *bit-identity*: batching is purely an
execution strategy, never a numerics change. These tests pin down every
layer of that contract -- a stacked spectral read vs one row at a time,
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


def _read_rows(sensor, waveforms, repeats):
    """The one-row-at-a-time reference: each waveform cleaned and read
    alone, in order."""
    amplitudes, peaks = [], []
    for waveform in waveforms:
        clean, peak = sensor.clean_block(waveform, 2.4)
        amplitudes += sensor.read_amplitude(clean, repeats=repeats).tolist()
        peaks += peak.tolist()
    return amplitudes, peaks


def _read_stack(sensor, waveforms, repeats):
    """The batched path: one ``clean_block`` and one ``read_amplitude``."""
    clean, peaks = sensor.clean_block(waveforms, 2.4)
    return (sensor.read_amplitude(clean, repeats=repeats).tolist(),
            peaks.tolist())


# ----------------------------------------------------------------------
# Sensor layer
# ----------------------------------------------------------------------
@given(seed=seeds, count=st.integers(1, 6), repeats=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_measure_block_matches_serial_bit_for_bit(seed, count, repeats):
    waveforms = _random_waveforms(seed, count)
    serial = _read_rows(EmSensor(seed=seed), waveforms, repeats)
    block = _read_stack(EmSensor(seed=seed), waveforms, repeats)
    assert len(block[0]) == len(block[1]) == count
    assert block == serial


def test_measure_block_single_repeat_matches_measure():
    waveforms = _random_waveforms(7, 4)
    serial, _ = _read_rows(EmSensor(seed=7), waveforms, repeats=1)
    block, _ = _read_stack(EmSensor(seed=7), waveforms, repeats=1)
    assert serial == block


def test_counter_protocol_survives_interleaving():
    """A stack of N consumes the same counters as N one-row reads, so
    mixed call sequences stay aligned."""
    waveforms = _random_waveforms(11, 3)
    serial, _ = _read_rows(EmSensor(seed=3), waveforms, repeats=2)
    mixed_sensor = EmSensor(seed=3)
    mixed, _ = _read_stack(mixed_sensor, waveforms[:2], repeats=2)
    mixed += _read_rows(mixed_sensor, waveforms[2:], repeats=2)[0]
    assert serial == mixed


def test_peak_freq_is_noise_free_and_repeat_invariant():
    """The reported resonance comes from the noise-free spectrum, so it
    depends neither on the receiver noise nor on the reads taken."""
    waveform = _random_waveforms(5, 1)[0]
    quiet = EmSensor(seed=9, noise_floor=0.0)
    noisy = EmSensor(seed=9, noise_floor=0.5)
    _, before = noisy.clean_block(waveform, 2.4)
    _read_stack(noisy, [waveform], repeats=8)
    _, after = noisy.clean_block(waveform, 2.4)
    assert before.tolist() == after.tolist() \
        == quiet.clean_block(waveform, 2.4)[1].tolist()


def test_measure_block_validates_repeats():
    from repro.errors import ConfigurationError
    sensor = EmSensor()
    clean, _ = sensor.clean_block(np.ones((2, 128)), 2.4)
    with pytest.raises(ConfigurationError):
        sensor.read_amplitude(clean, repeats=0)


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
    serial, _ = _read_rows(EmSensor(seed=4), waveforms, repeats=3)
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

        def one_at_a_time(loops):
            return [fitness.batch([loop])[0] for loop in loops]

        scorer = fitness.batch if batched else one_at_a_time
        return GeneticAlgorithm(
            scorer, config=config, seed=substream(seed, "didt-ga")).run()

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
    serial = [serial_search.fitness.batch([loop])[0] for _ in range(3)]
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
