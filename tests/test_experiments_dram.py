"""Integration: the DRAM-side experiment drivers (Table I, Figure 8)."""

import pytest

from repro.experiments.fig8a_ber import run_figure8a
from repro.experiments.fig8b_refresh_power import run_figure8b
from repro.experiments.stencil_scheduling import run_stencil_study
from repro.dram.cells import DramDevicePopulation
from repro.dram.controller import MemoryControlUnit
from repro.experiments.table1_weak_cells import (
    PAPER_COUNTS,
    _profile_device_chunk,
    merge_scrubs,
    run_table1,
    spread_pct,
)
from repro.units import RELAXED_REFRESH_S

SEED = 1


@pytest.fixture(scope="module")
def table1():
    # Regulation is exercised by the thermal tests; skip it here for speed.
    return run_table1(seed=SEED, regulate=False)


@pytest.fixture(scope="module")
def fig8a():
    return run_figure8a(seed=SEED)


@pytest.fixture(scope="module")
def fig8b():
    return run_figure8b(seed=SEED)


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------
def test_table1_counts_in_paper_band(table1):
    for temp, paper_row in PAPER_COUNTS.items():
        measured = table1.counts[temp]
        paper_mean = sum(paper_row) / len(paper_row)
        measured_mean = sum(measured) / len(measured)
        assert measured_mean == pytest.approx(paper_mean, rel=0.25), temp


def test_table1_amplification(table1):
    # Paper: ~17.5x more weak cells at 60 degC.
    assert 13.0 < table1.temperature_amplification() < 22.0


def test_table1_spread_shape(table1):
    """Low-temperature counts vary relatively more bank-to-bank."""
    assert table1.measured_spread_pct(50.0) > table1.measured_spread_pct(60.0)
    assert 8.0 < table1.measured_spread_pct(60.0) < 25.0


def test_table1_all_errors_corrected(table1):
    """The paper's headline ECC claim at <= 60 degC."""
    assert table1.all_errors_corrected
    for scrub in table1.scrubs.values():
        assert scrub.raw_bit_errors > 0       # errors did manifest
        assert scrub.uncorrectable_words == 0
        assert scrub.miscorrected_words == 0


def test_table1_chip_variation(table1):
    assert table1.chip_to_chip_variation(60.0) > 2.0


def test_table1_format(table1):
    text = table1.format()
    assert "bank0" in text and "spread" in text


def _per_bank_chunk(seed, devices, temps):
    """The chunk's rows from one query and one scrub per one-bank view."""
    population = DramDevicePopulation(seed=seed)
    mcu = MemoryControlUnit(0, trefp_s=RELAXED_REFRESH_S)
    out = {}
    for temp in temps:
        bank_totals, chip_totals, device_scrubs = [0] * 8, [], []
        for device in devices:
            banks = [population.bank_map(device, bank) for bank in range(8)]
            per_bank = [cells.unique_locations(RELAXED_REFRESH_S, temp)[0]
                        for cells in banks]
            chip_totals.append(sum(per_bank))
            bank_totals = [a + b for a, b in zip(bank_totals, per_bank)]
            device_scrubs.append(merge_scrubs(
                [mcu.scrub_bank(cells, temp) for cells in banks]))
        out[temp] = (bank_totals, chip_totals, device_scrubs)
    return out


@pytest.mark.parametrize("seed", [1, 7])
def test_device_chunk_equals_per_bank_profiling(seed):
    devices, temps = tuple(range(20, 32)), (36.0, 45.0, 55.0, 60.0)
    assert _profile_device_chunk((seed, devices, temps)) == \
        _per_bank_chunk(seed, devices, temps)


def test_spread_pct_helper():
    assert spread_pct([163, 230]) == pytest.approx(41.1, abs=0.1)


# ----------------------------------------------------------------------
# Figure 8a
# ----------------------------------------------------------------------
def test_fig8a_random_pattern_worst(fig8a):
    assert fig8a.random_is_worst_pattern


def test_fig8a_workloads_below_virus(fig8a):
    assert fig8a.workloads_below_random_virus


def test_fig8a_workload_variation_near_paper(fig8a):
    assert fig8a.workload_variation == pytest.approx(2.5, abs=0.5)


def test_fig8a_nw_highest_kmeans_lowest(fig8a):
    ber = fig8a.workload_ber
    assert max(ber, key=ber.get) == "nw"
    assert min(ber, key=ber.get) == "kmeans"


# ----------------------------------------------------------------------
# Figure 8b
# ----------------------------------------------------------------------
def test_fig8b_extremes_match_paper(fig8b):
    name_max, val_max = fig8b.max_savings
    name_min, val_min = fig8b.min_savings
    assert name_max == "nw"
    assert val_max == pytest.approx(27.3, abs=0.5)
    assert name_min == "kmeans"
    assert val_min == pytest.approx(9.4, abs=0.5)


def test_fig8b_savings_ordered_by_bandwidth(fig8b):
    # Higher bandwidth -> smaller relative refresh saving.
    from repro.workloads.rodinia import RODINIA_WORKLOADS
    for name, savings in fig8b.savings_pct.items():
        bw = RODINIA_WORKLOADS[name].dram.bandwidth_gbs
        for other, other_savings in fig8b.savings_pct.items():
            other_bw = RODINIA_WORKLOADS[other].dram.bandwidth_gbs
            if bw < other_bw:
                assert savings > other_savings


# ----------------------------------------------------------------------
# Stencil scheduling
# ----------------------------------------------------------------------
def test_stencil_blocked_schedule_wins():
    result = run_stencil_study(seed=SEED)
    assert result.natural_coverage < 0.1
    assert result.blocked_coverage > 0.9
    assert result.blocked_relative_ber < result.natural_relative_ber
