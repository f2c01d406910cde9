"""Weak-cell maps: nesting, determinism, population statistics."""

import numpy as np
import pytest

from repro.dram.cells import WeakCellMap, sample_weak_cell_count
from repro.dram.geometry import BankAddress
from repro.errors import ConfigurationError
from repro.units import RELAXED_REFRESH_S


@pytest.fixture(scope="module")
def bank_map() -> WeakCellMap:
    return WeakCellMap(BankAddress(0, 0), seed=42)


def test_population_is_deterministic():
    a = WeakCellMap(BankAddress(0, 0), seed=42)
    b = WeakCellMap(BankAddress(0, 0), seed=42)
    assert a.failing_count(RELAXED_REFRESH_S, 60.0) == \
        b.failing_count(RELAXED_REFRESH_S, 60.0)


def test_different_banks_differ():
    a = WeakCellMap(BankAddress(0, 0), seed=42)
    b = WeakCellMap(BankAddress(0, 1), seed=42)
    assert a.failing_count(RELAXED_REFRESH_S, 60.0) != \
        b.failing_count(RELAXED_REFRESH_S, 60.0)


def test_failure_sets_nest_across_temperature(bank_map):
    cold = {(c.row, c.col) for c in bank_map.failing_cells(RELAXED_REFRESH_S, 50.0)}
    hot = {(c.row, c.col) for c in bank_map.failing_cells(RELAXED_REFRESH_S, 60.0)}
    assert cold <= hot


def test_failure_sets_nest_across_interval(bank_map):
    short = {(c.row, c.col) for c in bank_map.failing_cells(1.0, 60.0)}
    long = {(c.row, c.col) for c in bank_map.failing_cells(RELAXED_REFRESH_S, 60.0)}
    assert short <= long


def test_polarity_partition(bank_map):
    both = bank_map.failing_count(RELAXED_REFRESH_S, 60.0, stored_ones=None)
    ones = bank_map.failing_count(RELAXED_REFRESH_S, 60.0, stored_ones=True)
    zeros = bank_map.failing_count(RELAXED_REFRESH_S, 60.0, stored_ones=False)
    assert ones + zeros == both


def test_unique_locations_uses_worst_coupling(bank_map):
    union = bank_map.unique_locations(RELAXED_REFRESH_S, 60.0)
    solid = bank_map.failing_count(RELAXED_REFRESH_S, 60.0, coupling=1.0)
    assert union >= solid


def test_query_beyond_profile_rejected(bank_map):
    with pytest.raises(ConfigurationError):
        bank_map.failing_count(60.0, 70.0)  # far beyond the profile


def test_cell_addresses_in_range(bank_map):
    for cell in bank_map.failing_cells(RELAXED_REFRESH_S, 60.0)[:100]:
        assert 0 <= cell.row < bank_map.geometry.rows_per_bank
        assert 0 <= cell.col < bank_map.geometry.bits_per_row


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


def test_population_maps_cached(dram_population):
    a = dram_population.bank_map(0, 0)
    b = dram_population.bank_map(0, 0)
    assert a is b
