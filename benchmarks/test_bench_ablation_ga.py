"""Ablation + throughput benches for the EM-guided virus search.

DESIGN.md calls out the GA as a design choice worth ablating: the paper
uses a genetic algorithm to craft the EM-maximizing loop; how much does
the structured search buy over drawing random loops with the same
evaluation budget?

On top of the ablation, ``test_bench_ga_throughput`` measures what the
batched fitness pipeline buys in evaluations per second against a
faithful transcription of the pre-batching serial path (Python-loop
waveform synthesis, per-sample IIR smoothing, one full spectral chain
per EM read). Results land in ``BENCH_ga_throughput.json`` for CI.

``REPRO_BENCH_QUICK=1`` shrinks both benches to a CI smoke size.
"""

import os
import time

import numpy as np

from conftest import emit, emit_json

from repro.cpu.execution import SMOOTHING_CYCLES, STATIC_CURRENT
from repro.cpu.isa import spec_of
from repro.experiments.common import RunOptions, map_units
from repro.rand import substream
from repro.viruses.didt import (
    FITNESS_WINDOW_CYCLES,
    DidtSearch,
    didt_search_unit,
    random_search_unit,
)
from repro.viruses.genetic import GaConfig, GeneticAlgorithm

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def _ablation_arm(task):
    """Picklable bench work unit: one ablation arm (GA or random)."""
    kind, seed, generations, population, budget = task
    if kind == "ga":
        return didt_search_unit((seed, generations, population, 3))[0]
    return random_search_unit((seed, budget))


def test_bench_ga_vs_random(benchmark, bench_seed):
    generations, population = (8, 16) if QUICK else (25, 32)
    config = GaConfig(population_size=population, generations=generations)
    # The GA's evaluation count is deterministic from its config, so the
    # equal-budget arms are independent and shard through the same
    # process-parallel engine as the figure drivers.
    budget = (config.population_size
              + config.generations * (config.population_size - config.elite_count))
    arms = [("ga", bench_seed, generations, population, budget),
            ("random", bench_seed, generations, population, budget)]

    def run_both():
        ga, random_ = map_units(_ablation_arm, arms, 2, RunOptions()).unwrap()
        return ga, random_

    ga_virus, random_virus = benchmark.pedantic(run_both, rounds=1, iterations=1)
    body = "\n".join([
        f"evaluation budget: {budget} loop evaluations each",
        f"GA+polish : swing={ga_virus.resonant_swing:.3f} "
        f"droop={ga_virus.droop_mv:.1f} mV em={ga_virus.em_amplitude:.4f}",
        f"random    : swing={random_virus.resonant_swing:.3f} "
        f"droop={random_virus.droop_mv:.1f} mV em={random_virus.em_amplitude:.4f}",
        f"GA advantage: {ga_virus.resonant_swing - random_virus.resonant_swing:+.3f} "
        "normalized swing",
    ])
    emit("Ablation: GA-evolved virus vs random search (equal budget)", body)
    emit_json("ga_ablation", {
        "bench": "ga_vs_random",
        "budget_evaluations": budget,
        "ga_swing": ga_virus.resonant_swing,
        "random_swing": random_virus.resonant_swing,
        "quick": QUICK,
    })
    assert ga_virus.resonant_swing >= random_virus.resonant_swing
    assert ga_virus.resonant_swing > 0.95


def _reference_fitness(loop, pdn, rng, repeats=3, freq_ghz=2.4,
                       noise_floor=0.01, bandwidth_hz=30e6,
                       current_scale_a=10.0):
    """The pre-batching serial fitness path, transcribed faithfully.

    Python-loop waveform synthesis, a per-sample one-pole IIR, and one
    complete spectral chain (rfft + frequency grid + impedance curve +
    receiver window) per EM read -- exactly what one GA evaluation cost
    before the batched pipeline.
    """
    window_cycles = FITNESS_WINDOW_CYCLES
    cycles = []
    while len(cycles) < window_cycles:
        for klass in loop.body:
            spec = spec_of(klass)
            occupancy = max(1, round(spec.cycles))
            level = STATIC_CURRENT + (1.0 - STATIC_CURRENT) * spec.current
            cycles.extend([level] * occupancy)
            if len(cycles) >= window_cycles:
                break
    raw = np.asarray(cycles[:window_cycles])
    alpha = 1.0 / (1.0 + SMOOTHING_CYCLES)
    waveform = np.empty_like(raw, dtype=float)
    state = float(raw[0])
    for i, sample in enumerate(raw):
        state += alpha * (float(sample) - state)
        waveform[i] = state
    n = window_cycles
    reads = []
    for _ in range(repeats):
        current = (waveform - np.mean(waveform)) * current_scale_a
        spectrum = np.abs(np.fft.rfft(current)) / n * 2.0
        freqs = np.fft.rfftfreq(n, d=1.0 / (freq_ghz * 1e9))
        f_res = pdn.params.resonant_freq_hz
        window = np.exp(-0.5 * ((freqs - f_res) / bandwidth_hz) ** 2)
        radiated = pdn.impedance_ohm(freqs) * spectrum * window
        amplitude = float(radiated[int(np.argmax(radiated))]) / (
            pdn.peak_impedance_ohm() * current_scale_a)
        reads.append(max(0.0, amplitude + rng.normal(0.0, noise_floor)))
    return float(np.mean(reads))


def test_bench_ga_throughput(benchmark, bench_seed):
    cohort = 32 if QUICK else 128
    search = DidtSearch(seed=bench_seed)
    ga = GeneticAlgorithm(search.fitness, seed=substream(bench_seed, "bench-pop"))
    loops = [ga._random_loop() for _ in range(cohort)]

    rng = substream(bench_seed, "bench-ref-noise")
    t0 = time.perf_counter()
    reference = [_reference_fitness(loop, search.pdn, rng) for loop in loops]
    serial_s = time.perf_counter() - t0

    def run_batched():
        # A fresh search each round: the memo cache must not let later
        # rounds ride on earlier rounds' work.
        fresh = DidtSearch(seed=bench_seed)
        return fresh.fitness.batch(loops)

    benchmark.pedantic(run_batched, rounds=3, iterations=1)
    # Self-timed rounds: the numbers must exist even under
    # --benchmark-disable (the CI smoke path), where benchmark.stats
    # is unavailable.
    timings = []
    for _ in range(3):
        t0 = time.perf_counter()
        batched = run_batched()
        timings.append(time.perf_counter() - t0)
    batched_s = min(timings)
    speedup = serial_s / batched_s
    serial_rate = cohort / serial_s
    batched_rate = cohort / batched_s
    # Same deterministic amplitudes modulo the noise protocol: the two
    # paths draw different noise streams, so compare at noise scale.
    assert np.allclose(sorted(reference), sorted(batched), atol=0.06)
    body = "\n".join([
        f"cohort: {cohort} loop evaluations, window {FITNESS_WINDOW_CYCLES} cycles",
        f"serial reference : {serial_s * 1e3:8.1f} ms  ({serial_rate:8.0f} eval/s)",
        f"batched pipeline : {batched_s * 1e3:8.1f} ms  ({batched_rate:8.0f} eval/s)",
        f"speedup: {speedup:.1f}x (target >= 5x)",
    ])
    emit("Throughput: batched EM-fitness pipeline vs serial reference", body)
    emit_json("ga_throughput", {
        "bench": "ga_throughput",
        "batch_size": cohort,
        "window_cycles": FITNESS_WINDOW_CYCLES,
        "serial_eval_per_s": serial_rate,
        "batched_eval_per_s": batched_rate,
        "speedup_vs_serial": speedup,
        "quick": QUICK,
    })
    assert speedup >= 5.0
