"""Memory-control-unit scrub path: weak cells -> real ECC -> reports."""

import numpy as np
import pytest

from repro.dram.cells import WeakCellMap
from repro.dram.controller import MemoryControlUnit
from repro.dram.ecc import DecodeStatus, SecdedCode
from repro.dram.errors_model import PatternKind
from repro.dram.geometry import BankAddress
from repro.errors import ConfigurationError
from repro.soc.slimpro import SLIMpro
from repro.units import NOMINAL_REFRESH_S, RELAXED_REFRESH_S


@pytest.fixture()
def slimpro() -> SLIMpro:
    sp = SLIMpro()
    sp.boot()
    return sp


@pytest.fixture(scope="module")
def weak_map() -> WeakCellMap:
    return WeakCellMap(BankAddress(0, 0), seed=77)


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
    union = weak_map.failing_count(RELAXED_REFRESH_S, 60.0, coupling=1.0)
    assert ones.raw_bit_errors + zeros.raw_bit_errors == union


def test_mcu_without_slimpro_still_scrubs(weak_map):
    mcu = MemoryControlUnit(0, slimpro=None, trefp_s=RELAXED_REFRESH_S)
    result = mcu.scrub_bank(weak_map, temp_c=60.0)
    assert result.words_scanned >= result.corrected_words


def test_invalid_mcu_index():
    with pytest.raises(ConfigurationError):
        MemoryControlUnit(-1)


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
    result = mcu._decode_failures(np.array(rows), np.array(cols), now_s=1.0)
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
    result = mcu._decode_failures(np.array(rows), np.array(cols), now_s=0.0)
    assert (result.words_scanned, result.even_words) == (4, 2)
