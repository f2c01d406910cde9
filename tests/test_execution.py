"""Execution model: waveforms and performance counters."""

import numpy as np
import pytest

from repro.cpu.execution import ExecutionModel, STATIC_CURRENT
from repro.cpu.isa import InstrClass
from repro.cpu.kernels import InstructionLoop, square_wave_loop
from repro.errors import ConfigurationError


@pytest.fixture()
def model() -> ExecutionModel:
    return ExecutionModel(freq_ghz=2.4, window_cycles=1024)


def test_window_length_respected(model):
    loop = InstructionLoop.of([InstrClass.INT_ALU] * 4)
    profile = model.profile(loop)
    assert len(profile.waveform) == 1024


def test_waveform_bounded(model):
    loop = square_wave_loop(InstrClass.SIMD, InstrClass.NOP, 24)
    waveform = model.profile(loop).waveform
    assert waveform.min() >= 0.0
    assert waveform.max() <= 1.0


def test_constant_loop_has_flat_waveform(model):
    loop = InstructionLoop.of([InstrClass.INT_ALU] * 8)
    profile = model.profile(loop)
    assert profile.waveform.max() - profile.waveform.min() < 1e-9


def test_square_wave_has_large_swing(model):
    loop = square_wave_loop(InstrClass.SIMD, InstrClass.NOP, 24)
    profile = model.profile(loop)
    assert profile.counters.current_swing > 0.7


def test_normalized_swing_caps_at_one(model):
    waveform = np.array([0.0, 1.0] * 512)
    assert ExecutionModel.normalized_swing(waveform) == 1.0


def test_counters_fp_and_mem_ratios(model):
    loop = InstructionLoop.of(
        [InstrClass.FP_FMA, InstrClass.LOAD_L1, InstrClass.INT_ALU, InstrClass.BRANCH])
    counters = model.profile(loop).counters
    assert counters.fp_ratio == pytest.approx(0.25)
    assert counters.mem_ratio == pytest.approx(0.25)
    assert counters.branch_ratio == pytest.approx(0.25)


def test_ipc_harmonic_blend(model):
    fast = InstructionLoop.of([InstrClass.NOP] * 8)
    slow = InstructionLoop.of([InstrClass.INT_DIV] * 8)
    assert model.profile(fast).counters.ipc > model.profile(slow).counters.ipc


def test_ipc_capped_at_machine_width(model):
    loop = InstructionLoop.of([InstrClass.NOP] * 8)
    assert model.profile(loop).counters.ipc <= 4.0


def test_mean_current_reflects_instruction_mix(model):
    hot = InstructionLoop.of([InstrClass.SIMD] * 8)
    cold = InstructionLoop.of([InstrClass.NOP] * 8)
    assert model.profile(hot).counters.mean_current > \
        model.profile(cold).counters.mean_current


def test_static_floor_present(model):
    cold = InstructionLoop.of([InstrClass.NOP] * 8)
    waveform = model.profile(cold).waveform
    assert waveform.min() >= STATIC_CURRENT * 0.9


def test_cycles_per_iteration(model):
    loop = InstructionLoop.of([InstrClass.SIMD, InstrClass.NOP])
    assert model.profile(loop).cycles_per_iteration == pytest.approx(5.0)


def test_invalid_config_rejected():
    with pytest.raises(ConfigurationError):
        ExecutionModel(freq_ghz=0.0)
    with pytest.raises(ConfigurationError):
        ExecutionModel(window_cycles=10)
