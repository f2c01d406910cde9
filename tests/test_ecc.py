"""The (72,64) SECDED code: exhaustive and targeted checks."""

import numpy as np
import pytest

from repro.dram.ecc import (
    CODE_BITS,
    DATA_BITS,
    DecodeStatus,
    SecdedCode,
)
from repro.errors import EccError


@pytest.fixture(scope="module")
def code() -> SecdedCode:
    return SecdedCode()


def test_clean_roundtrip(code):
    for data in (0, 1, 0xDEADBEEFCAFEBABE, (1 << 64) - 1):
        codeword = code.encode(data)
        result = code.decode(codeword)
        assert result.status is DecodeStatus.CLEAN
        assert result.data == data


def test_every_single_bit_error_corrected(code):
    """Exhaustive: all 72 single-bit flips of one codeword correct back."""
    data = 0x0123456789ABCDEF
    codeword = code.encode(data)
    for bit in range(CODE_BITS):
        corrupted = code.flip_bits(codeword, [bit])
        result = code.decode(corrupted)
        assert result.status is DecodeStatus.CORRECTED, f"bit {bit}"
        assert result.data == data, f"bit {bit}"
        assert result.corrected_bit == bit


def test_random_double_bit_errors_detected(code):
    rng = np.random.default_rng(5)
    data = 0xFEDCBA9876543210
    codeword = code.encode(data)
    for _ in range(300):
        bits = rng.choice(CODE_BITS, size=2, replace=False).tolist()
        corrupted = code.flip_bits(codeword, bits)
        result = code.decode(corrupted)
        assert result.status is DecodeStatus.DETECTED_UNCORRECTABLE, bits


def test_all_adjacent_double_bits_detected(code):
    data = 0xAAAAAAAAAAAAAAAA
    codeword = code.encode(data)
    for bit in range(CODE_BITS - 1):
        corrupted = code.flip_bits(codeword, [bit, bit + 1])
        assert code.decode(corrupted).status is \
            DecodeStatus.DETECTED_UNCORRECTABLE


def test_triple_bit_errors_never_reported_clean_with_truth(code):
    rng = np.random.default_rng(6)
    data = 0x1111111122222222
    codeword = code.encode(data)
    for _ in range(200):
        bits = rng.choice(CODE_BITS, size=3, replace=False).tolist()
        corrupted = code.flip_bits(codeword, bits)
        result = code.decode_with_truth(corrupted, data)
        # With ground truth, a >=2-bit escape must surface as UE or
        # MISCORRECTED -- never as a clean/healthy word.
        assert result.status in (DecodeStatus.DETECTED_UNCORRECTABLE,
                                 DecodeStatus.MISCORRECTED)


def test_decode_with_truth_passes_genuine_corrections(code):
    data = 0x5A5A5A5A5A5A5A5A
    corrupted = code.flip_bits(code.encode(data), [17])
    result = code.decode_with_truth(corrupted, data)
    assert result.status is DecodeStatus.CORRECTED
    assert result.data == data


def test_parity_bit_only_error(code):
    data = 42
    corrupted = code.flip_bits(code.encode(data), [CODE_BITS - 1])
    result = code.decode(corrupted)
    assert result.status is DecodeStatus.CORRECTED
    assert result.data == data


def test_out_of_range_inputs_rejected(code):
    with pytest.raises(EccError):
        code.encode(1 << DATA_BITS)
    with pytest.raises(EccError):
        code.decode(1 << CODE_BITS)
    with pytest.raises(EccError):
        code.flip_bits(0, [CODE_BITS])


def test_check_bits_zero_for_zero_word(code):
    assert code.encode(0) == 0
