"""Memory Control Unit front-end.

Ties the DRAM substrate together the way an MCU does on the board: it
owns a programmed refresh period, scrubs banks through the SECDED code,
and forwards every corrected/detected event to SLIMpro -- the reporting
path the paper extended for its characterization framework.

The scrub pass is the simulation analogue of the DPBench read-back: given
the weak cells of one or more banks and the stored pattern, it selects
the failing bits, groups them into 72-bit codewords, runs the real
decoder on each, and reports CE/UE/miscorrection counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.dram.cells import WeakCellMap, WeakCellView
from repro.dram.ecc import DecodeStatus, SecdedCode
from repro.dram.errors_model import PatternKind
from repro.dram.geometry import DEFAULT_GEOMETRY, DramGeometry
from repro.errors import ConfigurationError
from repro.soc.slimpro import EccReport, SLIMpro
from repro.units import NOMINAL_REFRESH_S

#: Data bits per ECC codeword (one burst of a 72-bit-wide DIMM).
WORD_DATA_BITS = 64


@dataclass(frozen=True)
class ScrubResult:
    """Outcome of one ECC scrub over a bank at a condition."""

    raw_bit_errors: int
    corrected_words: int
    uncorrectable_words: int
    miscorrected_words: int
    words_scanned: int
    #: Corrupted words with an even number of failing bits: the words a
    #: single parity bit would pass as clean.
    even_words: int

    @property
    def all_corrected(self) -> bool:
        """The paper's headline DRAM property at <= 60 degC."""
        return self.uncorrectable_words == 0 and self.miscorrected_words == 0

    @property
    def residual_word_errors(self) -> int:
        return self.uncorrectable_words + self.miscorrected_words


class MemoryControlUnit:
    """One MCU: refresh period + ECC scrub + error reporting."""

    def __init__(self, index: int, slimpro: Optional[SLIMpro] = None,
                 geometry: DramGeometry = DEFAULT_GEOMETRY,
                 trefp_s: float = NOMINAL_REFRESH_S) -> None:
        if index < 0:
            raise ConfigurationError("MCU index must be non-negative")
        self.index = index
        self.slimpro = slimpro
        self.geometry = geometry
        self._trefp_s = trefp_s
        self._code = SecdedCode()

    @property
    def trefp_s(self) -> float:
        return self._trefp_s

    # ------------------------------------------------------------------
    # ECC scrub
    # ------------------------------------------------------------------
    def scrub_bank(self, weak_map: WeakCellMap, temp_c: float,
                   pattern: PatternKind = PatternKind.RANDOM,
                   now_s: float = 0.0) -> ScrubResult:
        """Read back one bank through ECC: :meth:`scrub_banks` of it alone."""
        return self.scrub_banks(WeakCellView([weak_map]), temp_c, pattern,
                                now_s)

    def scrub_banks(self, cells: WeakCellView, temp_c: float,
                    pattern: PatternKind = PatternKind.RANDOM,
                    now_s: float = 0.0) -> ScrubResult:
        """Read back every bank of ``cells`` through ECC, after one
        refresh interval, in one pass.

        Weak cells that fail under the programmed TREFP at ``temp_c``
        with the given stored pattern are grouped into 64-bit words by
        their (bank, row, col // 64) position; each corrupted word is
        decoded by the real SECDED code. The result is the sum of the
        banks' scrubs, and SLIMpro receives each bank's reports in turn.
        """
        retention = cells.retention.params
        if pattern is PatternKind.ALL_ZEROS:
            failing = cells.failing(self._trefp_s, temp_c, 1.0) & ~cells.is_true
        elif pattern is PatternKind.ALL_ONES:
            failing = cells.failing(self._trefp_s, temp_c, 1.0) & cells.is_true
        elif pattern is PatternKind.CHECKERBOARD:
            failing = cells.failing(self._trefp_s, temp_c,
                                    retention.coupling_checker) \
                & cells.keep_checker
        else:
            failing = cells.failing(self._trefp_s, temp_c,
                                    retention.coupling_random) \
                & cells.keep_random
        return self._decode_failures(cells.keys[failing], cells.col_bits,
                                     cells.row_bits, now_s)

    def _decode_failures(self, keys: np.ndarray, col_bits: int,
                         row_bits: int, now_s: float) -> ScrubResult:
        """Classify every corrupted codeword of the banks in one pass.

        ``keys`` are the failing cells' packed ``(bank, row, col)`` keys,
        ``col`` in the low ``col_bits`` bits and ``row`` in the
        ``row_bits`` above them. The stored data is all-zero and every
        failing bit lands in a word's 64 data bits, so the SECDED truth
        table pins the verdict of the common cases without running the
        decoder: a word with one distinct failing bit is always
        corrected, one with two is always a detected double-bit error.
        Only words with >= 3 distinct failing bits -- where syndrome
        aliasing decides between a UE and a silent miscorrection -- go
        through the real code. The counts are bit-identical to decoding
        every word individually.
        """
        raw_bit_errors = int(keys.size)
        if raw_bit_errors == 0:
            return ScrubResult(0, 0, 0, 0, 0, 0)
        # Deduplicate cells and group them into (bank, row, word)
        # codewords; np.unique sorts, matching the scrub's address-ordered
        # readback bank by bank.
        cells = np.unique(keys)
        cell_bits = (cells & ((1 << col_bits) - 1)) % WORD_DATA_BITS
        word_keys = cells - cell_bits
        words, counts = np.unique(word_keys, return_counts=True)
        corrected = int(np.count_nonzero(counts == 1))
        uncorrectable = even_words = int(np.count_nonzero(counts == 2))
        miscorrected = 0
        multi_status = {}
        if np.any(counts >= 3):
            true_data = 0  # scrub compares against the known-stored word
            starts = np.searchsorted(word_keys, words)
            for index in np.nonzero(counts >= 3)[0]:
                lo = starts[index]
                bits = cell_bits[lo:lo + counts[index]].tolist()
                even_words += len(bits) % 2 == 0
                codeword = self._code.flip_bits(self._code.encode(true_data),
                                                sorted(bits))
                result = self._code.decode_with_truth(codeword, true_data)
                if result.status is DecodeStatus.DETECTED_UNCORRECTABLE:
                    uncorrectable += 1
                elif result.status is DecodeStatus.MISCORRECTED:
                    miscorrected += 1
                else:  # >= 3 data-bit flips can never decode clean/corrected
                    raise ConfigurationError("corrupted word decoded as clean")
                multi_status[int(words[index])] = result.status
        if self.slimpro is not None:
            self._report_words(words, counts, multi_status, col_bits,
                               row_bits, now_s)
        return ScrubResult(
            raw_bit_errors=raw_bit_errors,
            corrected_words=corrected,
            uncorrectable_words=uncorrectable,
            miscorrected_words=miscorrected,
            words_scanned=int(words.size),
            even_words=even_words,
        )

    def _report_words(self, words: np.ndarray, counts: np.ndarray,
                      multi_status, col_bits: int, row_bits: int,
                      now_s: float) -> None:
        """Forward per-word CE/UE events to SLIMpro in address order.

        The reported address is the word's bank-local ``row << 16 |
        word`` position.
        """
        row_mask, col_mask = (1 << row_bits) - 1, (1 << col_bits) - 1
        for key, count in zip(words.tolist(), counts.tolist()):
            address = (((key >> col_bits) & row_mask) << 16
                       | (key & col_mask) // WORD_DATA_BITS)
            if count == 1:
                self._report(now_s, correctable=True, address=address)
            elif count == 2:
                self._report(now_s, correctable=False, address=address)
            elif multi_status[key] is DecodeStatus.DETECTED_UNCORRECTABLE:
                self._report(now_s, correctable=False, address=address)

    def _report(self, now_s: float, correctable: bool, address: int) -> None:
        if self.slimpro is not None:
            self.slimpro.report_ecc(EccReport(
                time_s=now_s, source=f"mcu{self.index}",
                correctable=correctable, address=address,
            ))
