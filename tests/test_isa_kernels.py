"""ISA signatures and instruction loops."""

import pytest

from repro.cpu.isa import (
    GA_ALPHABET,
    INSTRUCTION_SPECS,
    MAX_CLASS_CURRENT,
    MIN_CLASS_CURRENT,
    InstrClass,
    spec_of,
)
from repro.cpu.kernels import (
    MAX_LOOP_LEN,
    InstructionLoop,
    square_wave_loop,
)
from repro.errors import ConfigurationError


def test_every_class_has_a_spec():
    assert set(INSTRUCTION_SPECS) == set(InstrClass)


def test_current_bounds():
    assert MIN_CLASS_CURRENT == spec_of(InstrClass.NOP).current
    assert MAX_CLASS_CURRENT == spec_of(InstrClass.SIMD).current
    for spec in INSTRUCTION_SPECS.values():
        assert 0.0 <= spec.current <= 1.0
        assert spec.cycles > 0


def test_simd_hungriest_nop_cheapest():
    currents = {k: s.current for k, s in INSTRUCTION_SPECS.items()}
    assert max(currents, key=currents.get) is InstrClass.SIMD
    assert min(currents, key=currents.get) is InstrClass.NOP


def test_fp_classes_marked():
    assert spec_of(InstrClass.FP_FMA).uses_fp
    assert spec_of(InstrClass.SIMD).uses_fp
    assert not spec_of(InstrClass.INT_ALU).uses_fp


def test_memory_classes_marked():
    for klass in (InstrClass.LOAD_L1, InstrClass.LOAD_L2,
                  InstrClass.LOAD_DRAM, InstrClass.STORE):
        assert spec_of(klass).touches_memory


def test_loop_length_bounds():
    with pytest.raises(ConfigurationError):
        InstructionLoop.of([InstrClass.NOP])  # below MIN_LOOP_LEN
    with pytest.raises(ConfigurationError):
        InstructionLoop.of([InstrClass.NOP] * (MAX_LOOP_LEN + 1))


def test_loop_total_cycles():
    loop = InstructionLoop.of([InstrClass.NOP, InstrClass.INT_MUL])
    assert loop.total_cycles == pytest.approx(1.0 + 3.0)


def test_loop_histogram_and_describe():
    loop = InstructionLoop.of([InstrClass.SIMD] * 3 + [InstrClass.NOP] * 2)
    hist = loop.histogram()
    assert hist[InstrClass.SIMD] == 3
    assert hist[InstrClass.NOP] == 2
    assert "simd*3" in loop.describe()


def test_square_wave_half_period_sizing():
    loop = square_wave_loop(InstrClass.SIMD, InstrClass.NOP, 24)
    hist = loop.histogram()
    assert hist[InstrClass.SIMD] == 6   # 24 cycles / 4 cycles per SIMD
    assert hist[InstrClass.NOP] == 24   # 24 cycles / 1 cycle per NOP


def test_square_wave_invalid_period():
    with pytest.raises(ConfigurationError):
        square_wave_loop(InstrClass.SIMD, InstrClass.NOP, 0)


def test_square_wave_too_long_rejected():
    with pytest.raises(ConfigurationError):
        square_wave_loop(InstrClass.NOP, InstrClass.SERIALIZE, 400)


def test_ga_alphabet_covers_all_classes():
    assert set(GA_ALPHABET) == set(InstrClass)
