"""Memory-control-unit scrub path: weak cells -> real ECC -> reports."""

import numpy as np
import pytest

import repro.dram.cells as cells_module
from repro.dram.cells import DramDevicePopulation
from repro.dram.controller import MemoryControlUnit, ScrubResult
from repro.dram.ecc import DecodeStatus, SecdedCode
from repro.dram.errors_model import PatternKind
from repro.dram.geometry import DramGeometry
from repro.errors import ConfigurationError
from repro.experiments.ablations import SWEEP_DEVICES
from repro.experiments.table1_weak_cells import merge_scrubs
from repro.rand import resolve_seed
from repro.soc.slimpro import SLIMpro
from repro.units import NOMINAL_REFRESH_S, RELAXED_REFRESH_S


@pytest.fixture()
def slimpro() -> SLIMpro:
    sp = SLIMpro()
    sp.boot()
    return sp


@pytest.fixture(scope="module")
def weak_map():
    """Bank 0 of device 0 as a one-bank view."""
    return DramDevicePopulation(seed=77).bank_map(0, 0)


def test_nominal_refresh_scrub_is_clean(weak_map, slimpro):
    mcu = MemoryControlUnit(0, slimpro, trefp_s=NOMINAL_REFRESH_S)
    result = mcu.scrub_bank(weak_map, temp_c=60.0)
    assert result.raw_bit_errors == 0
    assert result.all_corrected


def test_relaxed_refresh_errors_all_corrected(weak_map, slimpro):
    """The paper's claim at <= 60 degC: SECDED corrects everything."""
    mcu = MemoryControlUnit(0, slimpro, trefp_s=RELAXED_REFRESH_S)
    result = mcu.scrub_bank(weak_map, temp_c=60.0)
    assert result.raw_bit_errors > 0
    assert result.all_corrected
    assert result.corrected_words == result.raw_bit_errors  # all singles


def test_ce_reports_reach_slimpro(weak_map, slimpro):
    mcu = MemoryControlUnit(0, slimpro, trefp_s=RELAXED_REFRESH_S)
    result = mcu.scrub_bank(weak_map, temp_c=60.0, now_s=5.0)
    assert slimpro.correctable_count(since_s=4.0) == result.corrected_words
    events = slimpro.ecc_events(since_s=4.0)
    assert all(e.source == "mcu0" for e in events)


def test_pattern_affects_raw_error_count(weak_map, slimpro):
    mcu = MemoryControlUnit(0, slimpro, trefp_s=RELAXED_REFRESH_S)
    random_errors = mcu.scrub_bank(weak_map, 60.0, PatternKind.RANDOM)
    zeros_errors = mcu.scrub_bank(weak_map, 60.0, PatternKind.ALL_ZEROS)
    assert zeros_errors.raw_bit_errors < random_errors.raw_bit_errors


def test_solid_patterns_partition_population(weak_map, slimpro):
    mcu = MemoryControlUnit(0, slimpro, trefp_s=RELAXED_REFRESH_S)
    ones = mcu.scrub_bank(weak_map, 60.0, PatternKind.ALL_ONES)
    zeros = mcu.scrub_bank(weak_map, 60.0, PatternKind.ALL_ZEROS)
    union = int(np.count_nonzero(
        weak_map.failing(RELAXED_REFRESH_S, 60.0, coupling=1.0)))
    assert ones.raw_bit_errors + zeros.raw_bit_errors == union


def test_mcu_without_slimpro_still_scrubs(weak_map):
    mcu = MemoryControlUnit(0, slimpro=None, trefp_s=RELAXED_REFRESH_S)
    result = mcu.scrub_bank(weak_map, temp_c=60.0)
    assert result.words_scanned >= result.corrected_words


def test_invalid_mcu_index():
    with pytest.raises(ConfigurationError):
        MemoryControlUnit(-1)


#: Column and row field widths of the default geometry's packed cell keys.
COL_BITS, ROW_BITS = 13, 16


def _decode(mcu, rows, cols, now_s):
    """Scrub the bank-0 cells at ``(rows, cols)`` as packed keys."""
    keys = np.array(rows) << COL_BITS | np.array(cols)
    return mcu._decode_failures(keys, COL_BITS, ROW_BITS, now_s)


def test_decode_failures_multibit_words_use_real_decoder(slimpro):
    """The vectorized scrub agrees with the SECDED code on every arity.

    One word per arity: a single flip (always corrected), a double flip
    (always detected-uncorrectable), an aliasing triple (silent
    miscorrection -- no report), a detected triple (UE report), and a
    duplicated cell that dedups back to a single flip. Reports must
    arrive in ascending (row, word) address order.
    """
    code = SecdedCode()
    # (0,1,2) aliases to a correctable-looking word; (0,4,57) is a
    # detected-uncorrectable triple. Double-check both against the code.
    mis, ue3 = (0, 1, 2), (0, 4, 57)
    assert code.decode_with_truth(
        code.flip_bits(code.encode(0), list(mis)), 0
    ).status is DecodeStatus.MISCORRECTED
    assert code.decode_with_truth(
        code.flip_bits(code.encode(0), list(ue3)), 0
    ).status is DecodeStatus.DETECTED_UNCORRECTABLE

    rows = [5] * 3 + [5] * 3 + [2, 2, 2, 9, 9]
    cols = list(mis) + [64 + b for b in ue3] + [7, 65, 73, 3, 3]
    mcu = MemoryControlUnit(0, slimpro, trefp_s=RELAXED_REFRESH_S)
    result = _decode(mcu, rows, cols, now_s=1.0)
    assert result.raw_bit_errors == len(rows)
    assert result.corrected_words == 2       # (2,0) single, (9,0) deduped
    assert result.uncorrectable_words == 2   # (2,1) double, (5,1) triple
    assert result.miscorrected_words == 1    # (5,0) aliased triple
    assert result.words_scanned == 5
    assert [(e.correctable, e.address) for e in slimpro.ecc_events()] == [
        (True, (2 << 16) | 0), (False, (2 << 16) | 1),
        (False, (5 << 16) | 1), (True, (9 << 16) | 0),
    ]


def test_even_words_counts_the_words_parity_misses():
    """Words with 2 and 4 failing bits pass a parity bit; 1 and 3 do not."""
    rows = [1] + [2] * 2 + [3] * 3 + [4] * 4
    cols = [0, 0, 1, 0, 4, 57, 10, 20, 30, 40]
    mcu = MemoryControlUnit(0, trefp_s=RELAXED_REFRESH_S)
    result = _decode(mcu, rows, cols, now_s=0.0)
    assert (result.words_scanned, result.even_words) == (4, 2)


# ----------------------------------------------------------------------
# Multi-bank scrub == the per-bank scrub, decoding every word
# ----------------------------------------------------------------------
def _reference_scrub(cells, bank, trefp_s, temp_c, pattern=PatternKind.RANDOM):
    """Bank ``bank`` of the view ``cells`` scrubbed alone, every
    corrupted word decoded by the real code."""
    params = cells.retention.params
    stored_ones, coupling = {
        PatternKind.ALL_ZEROS: (False, 1.0),
        PatternKind.ALL_ONES: (True, 1.0),
        PatternKind.CHECKERBOARD: (None, params.coupling_checker),
        PatternKind.RANDOM: (None, params.coupling_random),
    }[pattern]
    mask = (cells.bank == bank) & cells.failing(trefp_s, temp_c, coupling)
    keys, is_true = cells.keys[mask].tolist(), cells.is_true[mask].tolist()
    shift = pattern is PatternKind.RANDOM
    failing = []
    for key, true_cell in zip(keys, is_true):
        row = (key >> cells.col_bits) & ((1 << cells.row_bits) - 1)
        col = key & ((1 << cells.col_bits) - 1)
        if stored_ones is None:
            charged = (col + shift * row) % 2 == (0 if true_cell else 1)
        else:
            charged = true_cell == stored_ones
        if charged:
            failing.append((row, col))
    words = {}
    for row, col in failing:
        words.setdefault((row, col // 64), set()).add(col % 64)
    code = SecdedCode()
    statuses = [code.decode_with_truth(
        code.flip_bits(code.encode(0), sorted(bits)), 0).status
        for bits in words.values()]
    return ScrubResult(
        raw_bit_errors=len(failing),
        corrected_words=statuses.count(DecodeStatus.CORRECTED),
        uncorrectable_words=statuses.count(DecodeStatus.DETECTED_UNCORRECTABLE),
        miscorrected_words=statuses.count(DecodeStatus.MISCORRECTED),
        words_scanned=len(words),
        even_words=sum(len(bits) % 2 == 0 for bits in words.values()),
    )


def _per_bank_scrubs(population, devices, temp, pattern=PatternKind.RANDOM):
    """The reference scrub of each bank of ``devices``, sampled alone."""
    return merge_scrubs([
        _reference_scrub(population.bank_map(device, bank), 0,
                         RELAXED_REFRESH_S, temp, pattern)
        for device in devices for bank in range(8)])


@pytest.mark.parametrize("seed", [3, 11, 2024])
@pytest.mark.parametrize("temp", [36.0, 45.0, 50.0, 60.0])
def test_device_view_equals_per_bank_path(seed, temp):
    """Per-bank counts and summed scrub of one device view equal those
    of its banks, each sampled into a view of its own."""
    population = DramDevicePopulation(seed=seed)
    mcu = MemoryControlUnit(0, trefp_s=RELAXED_REFRESH_S)
    for device in (0, 17, 71):
        cells = population.device_cells([device])
        assert cells.unique_locations(RELAXED_REFRESH_S, temp) == [
            population.bank_map(device, bank).unique_locations(
                RELAXED_REFRESH_S, temp)[0] for bank in range(8)]
        assert mcu.scrub_bank(cells, temp) == \
            _per_bank_scrubs(population, [device], temp)


@pytest.mark.parametrize("pattern", list(PatternKind))
def test_scrub_banks_every_pattern(pattern):
    population = DramDevicePopulation(seed=5)
    mcu = MemoryControlUnit(0, trefp_s=RELAXED_REFRESH_S)
    cells = population.device_cells([2, 3])
    assert mcu.scrub_bank(cells, 60.0, pattern) == \
        _per_bank_scrubs(population, [2, 3], 60.0, pattern)


def test_scrub_banks_reports_each_bank_in_address_order():
    population = DramDevicePopulation(seed=8)
    together, apart = SLIMpro(), SLIMpro()
    together.boot()
    apart.boot()
    MemoryControlUnit(0, together, trefp_s=RELAXED_REFRESH_S).scrub_bank(
        population.device_cells([4]), 60.0, now_s=2.0)
    per_bank = MemoryControlUnit(0, apart, trefp_s=RELAXED_REFRESH_S)
    for bank in range(8):
        per_bank.scrub_bank(population.bank_map(4, bank), 60.0, now_s=2.0)
    assert together.ecc_events() == apart.ecc_events()
    assert len(together.ecc_events()) > 8


@pytest.mark.slow
@pytest.mark.parametrize("temp", [65.0, 70.0])
def test_scrub_banks_equals_per_bank_path_with_double_bit_words(temp):
    """The ``ablation-ecc`` population, where double-bit words occur."""
    population = DramDevicePopulation(seed=resolve_seed(None),
                                      profile_interval_s=4.0,
                                      profile_temp_c=72.0)
    mcu = MemoryControlUnit(0, trefp_s=RELAXED_REFRESH_S)
    cells = population.device_cells(range(SWEEP_DEVICES))
    result = mcu.scrub_bank(cells, temp)
    assert result == merge_scrubs(
        [_reference_scrub(cells, bank, RELAXED_REFRESH_S, temp)
         for bank in range(cells.banks)])
    if temp == 70.0:
        assert result.uncorrectable_words > 0


def _no_generator(seed, name):
    raise AssertionError(f"substream {name} drawn before the key check")


def test_view_rejects_a_key_wider_than_63_bits(monkeypatch):
    """32 row bits + 31 column bits + 3 bank bits: checked before sampling
    (one bank fits in 63 bits, but would sample 2**63 bits)."""
    wide = DramGeometry(rows_per_bank=2 ** 32, bits_per_row=2 ** 31)
    population = DramDevicePopulation(geometry=wide)
    monkeypatch.setattr(cells_module, "substream", _no_generator)
    with pytest.raises(ConfigurationError, match="66 bits"):
        population.device_cells([0])


def test_view_rejects_banks_profiled_differently(monkeypatch):
    population = DramDevicePopulation()
    monkeypatch.setattr(cells_module, "substream", _no_generator)
    with pytest.raises(ConfigurationError, match="at least one bank"):
        population.device_cells([])
