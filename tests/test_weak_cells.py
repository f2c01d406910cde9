"""Weak-cell sampling: nesting, determinism, population statistics."""

import numpy as np
import pytest

import repro.dram.cells as cells_module
from repro.dram.cells import DramDevicePopulation, sample_weak_cell_count
from repro.dram.geometry import DEFAULT_GEOMETRY
from repro.dram.retention import _normal_icdf_array
from repro.errors import ConfigurationError
from repro.rand import substream
from repro.units import RELAXED_REFRESH_S


@pytest.fixture(scope="module")
def cells():
    """Every bank of device 0 as one view."""
    return DramDevicePopulation(seed=42).device_cells([0])


def failing_keys(view, interval_s, temp_c, coupling=1.0):
    return set(view.keys[view.failing(interval_s, temp_c, coupling)].tolist())


def test_population_is_deterministic():
    a = DramDevicePopulation(seed=42).device_cells([0])
    b = DramDevicePopulation(seed=42).device_cells([0])
    for name in ("bank", "keys", "retention_ref_s", "is_true"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_different_banks_differ():
    population = DramDevicePopulation(seed=42)
    a, b = population.bank_map(0, 0), population.bank_map(0, 1)
    assert a.unique_locations(RELAXED_REFRESH_S, 60.0) != \
        b.unique_locations(RELAXED_REFRESH_S, 60.0)


def test_failure_sets_nest_across_temperature(cells):
    cold = failing_keys(cells, RELAXED_REFRESH_S, 50.0)
    hot = failing_keys(cells, RELAXED_REFRESH_S, 60.0)
    assert cold and cold <= hot


def test_failure_sets_nest_across_interval(cells):
    short = failing_keys(cells, 1.0, 60.0)
    long = failing_keys(cells, RELAXED_REFRESH_S, 60.0)
    assert short <= long


def test_polarity_partition(cells):
    failing = cells.failing(RELAXED_REFRESH_S, 60.0, 1.0)
    ones = int(np.count_nonzero(failing & cells.is_true))
    zeros = int(np.count_nonzero(failing & ~cells.is_true))
    assert ones > 0 and zeros > 0
    assert ones + zeros == int(np.count_nonzero(failing))


def test_unique_locations_uses_worst_coupling(cells):
    union = sum(cells.unique_locations(RELAXED_REFRESH_S, 60.0))
    solid = int(np.count_nonzero(cells.failing(RELAXED_REFRESH_S, 60.0, 1.0)))
    assert union >= solid


def test_query_beyond_profile_rejected(cells):
    with pytest.raises(ConfigurationError):
        cells.failing(60.0, 70.0, 1.0)  # far beyond the profile
    with pytest.raises(ConfigurationError):
        cells.unique_locations(60.0, 70.0)


def test_cell_addresses_in_range(cells):
    keys = cells.keys
    rows = (keys >> cells.col_bits) & ((1 << cells.row_bits) - 1)
    cols = keys & ((1 << cells.col_bits) - 1)
    np.testing.assert_array_equal(keys >> (cells.row_bits + cells.col_bits),
                                  cells.bank)
    assert np.all(rows < DEFAULT_GEOMETRY.rows_per_bank)
    assert np.all(cols < DEFAULT_GEOMETRY.bits_per_row)
    assert keys.min() >= 0


def test_sample_count_poisson_mean():
    rng = np.random.default_rng(1)
    counts = [sample_weak_cell_count(rng, 10_000_000, 1e-5) for _ in range(200)]
    mean = sum(counts) / len(counts)
    assert mean == pytest.approx(100.0, rel=0.1)


def test_sample_count_invalid_probability():
    with pytest.raises(ConfigurationError):
        sample_weak_cell_count(np.random.default_rng(1), 100, 1.5)


def test_population_aggregate_counts(dram_population):
    """Board-level Table I expectations: ~200 @50C, ~3500 @60C."""
    total50 = total60 = 0
    for dev in range(dram_population.geometry.num_devices):
        per50 = dram_population.device_unique_locations(dev, RELAXED_REFRESH_S, 50.0)
        per60 = dram_population.device_unique_locations(dev, RELAXED_REFRESH_S, 60.0)
        total50 += sum(per50)
        total60 += sum(per60)
    assert 1200 < total50 < 2700      # 8 banks x ~150-280
    assert 22000 < total60 < 40000    # 8 banks x ~2800-4400
    assert 13 < total60 / total50 < 23


def test_population_chip_variation(dram_population):
    """'Large variation of the number of weak cells across DRAM chips'."""
    totals = [sum(dram_population.device_unique_locations(d, RELAXED_REFRESH_S, 60.0))
              for d in range(dram_population.geometry.num_devices)]
    assert max(totals) / max(1, min(totals)) > 2.0


# ----------------------------------------------------------------------
# The batched sampler == one bank at a time
# ----------------------------------------------------------------------
class _LoggedGenerator:
    """A generator that logs each call's method name and first argument."""

    def __init__(self, rng, log):
        self._rng, self._log = rng, log

    def __getattr__(self, name):
        def call(*args, **kwargs):
            self._log.append((name, args[0] if args else None))
            return getattr(self._rng, name)(*args, **kwargs)
        return call


def _reference_cells(population, devices):
    """``device_cells(devices)`` drawn one bank at a time, each bank
    running its own inverse CDF, as ``(bank, keys, retention_ref_s,
    is_true)`` plus the generator calls each bank's substream saw."""
    geometry, params = population.geometry, population.retention.params
    tail_p = population.retention.fail_probability(
        population.profile_interval_s, population.profile_temp_c,
        coupling=params.coupling_random)
    col_bits = (geometry.bits_per_row - 1).bit_length()
    row_bits = (geometry.rows_per_bank - 1).bit_length()
    arrays, calls = ([], [], [], []), []
    banks = [(d, b) for d in devices for b in range(geometry.banks_per_device)]
    for index, (device, bank) in enumerate(banks):
        rng = substream(population._seed, f"weakcells-d{device}-b{bank}")
        mean = geometry.bits_per_bank * tail_p * (
            float(population.chip_factors[device])
            * float(population.bank_factors[device, bank]))
        count = int(rng.poisson(mean))
        uniforms = np.clip(rng.random(count), 1e-12, 1.0)
        rows = rng.integers(geometry.rows_per_bank, size=count)
        cols = rng.integers(geometry.bits_per_row, size=count)
        z = _normal_icdf_array(uniforms * tail_p)
        for out, values in zip(arrays, (
                np.full(count, index),
                index << (row_bits + col_bits) | rows << col_bits | cols,
                np.exp(params.ln_median_s + params.ln_sigma * z),
                rng.random(count) < params.true_cell_fraction)):
            out.append(values)
        calls += [("poisson", mean), ("random", count),
                  ("integers", geometry.rows_per_bank),
                  ("integers", geometry.bits_per_row), ("random", count)]
    return [np.concatenate(parts) for parts in arrays], calls


@pytest.mark.parametrize("seed", [3, 11, 2024])
@pytest.mark.parametrize("profile", [{}, {"profile_temp_c": 72.0}])
def test_device_cells_equal_a_per_bank_reference_sampler(seed, profile,
                                                         monkeypatch):
    """Array for array, and call for call on every bank's substream:
    the draw order and the Poisson mean's float association are kept."""
    calls = []
    monkeypatch.setattr(cells_module, "substream", lambda seed, name:
                        _LoggedGenerator(substream(seed, name), calls))
    population = DramDevicePopulation(seed=seed, **profile)
    for devices in ([0], [17], [71], [2, 3]):
        calls.clear()
        view = population.device_cells(devices)
        expected, expected_calls = _reference_cells(population, devices)
        for name, want in zip(("bank", "keys", "retention_ref_s", "is_true"),
                              expected):
            np.testing.assert_array_equal(getattr(view, name), want)
        assert calls == expected_calls
        assert view.banks == 8 * len(devices)
