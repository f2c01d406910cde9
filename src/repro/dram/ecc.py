"""A real (72,64) SECDED Hamming code.

The X-Gene2's MCUs protect each 64-bit word with 8 check bits: single
error correction, double error detection (SECDED). The paper's central
DRAM finding -- "all manifested errors are corrected by ECC ... when the
DRAM temperature does not exceed 60 degC" -- is a property of error
density vs codeword size, so we implement the actual code rather than a
probability shortcut, and let the experiments exercise it with concrete
corrupted words.

Construction: an extended Hamming code. 7 check bits implement a
Hamming(71,64)-style parity-check matrix with distinct nonzero columns
per data bit; an 8th overall-parity bit extends minimum distance to 4,
distinguishing single (correctable) from double (detectable) errors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import EccError

DATA_BITS = 64
CHECK_BITS = 8
CODE_BITS = DATA_BITS + CHECK_BITS


class DecodeStatus(enum.Enum):
    """Outcome of decoding one codeword."""

    CLEAN = "clean"                    # no error
    CORRECTED = "corrected"            # single-bit error fixed
    DETECTED_UNCORRECTABLE = "ue"      # double-bit error detected
    MISCORRECTED = "miscorrected"      # >2 errors aliased to a valid or
    #                                    correctable-looking word (silent)


@dataclass(frozen=True)
class DecodeResult:
    """Decoded data plus the status the MCU would report."""

    data: int
    status: DecodeStatus
    corrected_bit: Optional[int] = None  # codeword bit index if CORRECTED


def _build_columns() -> List[int]:
    """Syndrome column (7-bit, nonzero, non-power-of-two) per data bit.

    Power-of-two syndromes are reserved for the check bits themselves, so
    data columns are the remaining values 3, 5, 6, 7, 9, ... -- the
    classic Hamming assignment.
    """
    columns = []
    value = 3
    while len(columns) < DATA_BITS:
        if value & (value - 1) != 0:  # skip powers of two
            columns.append(value)
        value += 1
    return columns


_DATA_COLUMNS = _build_columns()
_CHECK_COLUMNS = [1 << i for i in range(CHECK_BITS - 1)]  # 7 Hamming checks


class SecdedCode:
    """Encoder/decoder for the (72,64) SECDED code.

    Codeword layout: bits 0..63 are data, bits 64..70 the seven Hamming
    check bits, bit 71 the overall parity.
    """

    def encode(self, data: int) -> int:
        """Encode a 64-bit word into a 72-bit codeword."""
        if not 0 <= data < (1 << DATA_BITS):
            raise EccError(f"data word out of range for {DATA_BITS} bits")
        syndrome = 0
        for bit in range(DATA_BITS):
            if (data >> bit) & 1:
                syndrome ^= _DATA_COLUMNS[bit]
        codeword = data
        for i in range(CHECK_BITS - 1):
            if (syndrome >> i) & 1:
                codeword |= 1 << (DATA_BITS + i)
        overall = bin(codeword).count("1") & 1
        if overall:
            codeword |= 1 << (CODE_BITS - 1)
        return codeword

    def _syndrome(self, codeword: int) -> Tuple[int, int]:
        """Return ``(hamming_syndrome, overall_parity)`` of a codeword."""
        syndrome = 0
        for bit in range(DATA_BITS):
            if (codeword >> bit) & 1:
                syndrome ^= _DATA_COLUMNS[bit]
        for i in range(CHECK_BITS - 1):
            if (codeword >> (DATA_BITS + i)) & 1:
                syndrome ^= _CHECK_COLUMNS[i]
        overall = bin(codeword).count("1") & 1
        return syndrome, overall

    def decode(self, codeword: int) -> DecodeResult:
        """Decode a possibly-corrupted 72-bit codeword.

        Classification follows the standard SECDED truth table:

        ========== ========== =================================
        syndrome   parity     meaning
        ========== ========== =================================
        0          0          clean
        0          1          overall-parity bit flipped (corrected)
        nonzero    1          single-bit error (corrected)
        nonzero    0          double-bit error (detected, UE)
        ========== ========== =================================

        Triple-or-more errors can alias into any row; when they alias
        into a "single error" row, the decoder silently mis-corrects --
        the pathway that would produce SDC at very high error densities.
        """
        if not 0 <= codeword < (1 << CODE_BITS):
            raise EccError(f"codeword out of range for {CODE_BITS} bits")
        syndrome, overall = self._syndrome(codeword)
        data = codeword & ((1 << DATA_BITS) - 1)
        if syndrome == 0 and overall == 0:
            return DecodeResult(data=data, status=DecodeStatus.CLEAN)
        if syndrome == 0 and overall == 1:
            # Only the overall parity bit is wrong; data is intact.
            return DecodeResult(data=data, status=DecodeStatus.CORRECTED,
                                corrected_bit=CODE_BITS - 1)
        if overall == 1:
            bit = self._locate(syndrome)
            if bit is None:
                # Syndrome does not match any column: >= 3 errors seen as
                # an uncorrectable pattern.
                return DecodeResult(data=data,
                                    status=DecodeStatus.DETECTED_UNCORRECTABLE)
            corrected = codeword ^ (1 << bit)
            return DecodeResult(data=corrected & ((1 << DATA_BITS) - 1),
                                status=DecodeStatus.CORRECTED, corrected_bit=bit)
        return DecodeResult(data=data, status=DecodeStatus.DETECTED_UNCORRECTABLE)

    def decode_with_truth(self, codeword: int, true_data: int) -> DecodeResult:
        """Decode and reclassify silent mis-corrections using the truth.

        The simulator knows the originally-stored data, so it can tell a
        genuine correction from an aliased >=3-bit error that *looks*
        corrected. Experiments use this to count SDC-through-ECC events.
        """
        result = self.decode(codeword)
        if result.status in (DecodeStatus.CLEAN, DecodeStatus.CORRECTED) \
                and result.data != true_data:
            return DecodeResult(data=result.data, status=DecodeStatus.MISCORRECTED,
                                corrected_bit=result.corrected_bit)
        return result

    @staticmethod
    def _locate(syndrome: int) -> Optional[int]:
        """Map a syndrome to the codeword bit position it points at."""
        if syndrome in _CHECK_COLUMNS:
            return DATA_BITS + _CHECK_COLUMNS.index(syndrome)
        if syndrome in _DATA_SYNDROME_TO_BIT:
            return _DATA_SYNDROME_TO_BIT[syndrome]
        return None

    @staticmethod
    def flip_bits(codeword: int, bits: List[int]) -> int:
        """Inject errors: flip the given codeword bit positions."""
        for bit in bits:
            if not 0 <= bit < CODE_BITS:
                raise EccError(f"bit index {bit} out of range")
            codeword ^= 1 << bit
        return codeword


_DATA_SYNDROME_TO_BIT = {col: i for i, col in enumerate(_DATA_COLUMNS)}
