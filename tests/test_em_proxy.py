"""EM sensor model and the EM-as-droop-proxy property.

The paper's methodology stands on EM amplitude being a faithful proxy
for voltage noise ("By maximizing EM amplitude, voltage noise is
maximized as well, which we prove with Vmin testing"). These tests
quantify that proxy inside our substrate: EM readings must rank stimuli
the same way droop does, despite receiver noise.
"""

import numpy as np
import pytest

from repro.cpu.execution import ExecutionModel
from repro.cpu.isa import InstrClass
from repro.cpu.kernels import InstructionLoop, square_wave_loop
from repro.errors import ConfigurationError
from repro.pdn.droop import analyze_loop
from repro.pdn.em import EmSensor
from repro.pdn.rlc import PdnModel


@pytest.fixture()
def sensor() -> EmSensor:
    return EmSensor(seed=7)


@pytest.fixture()
def exec_model() -> ExecutionModel:
    return ExecutionModel(window_cycles=4096)


def _read(sensor, waveforms, repeats=1):
    """Noisy amplitudes of a stack of waveforms: ``clean_block`` then
    ``read_amplitude``, the sensor's one measurement path."""
    clean, _ = sensor.clean_block(np.asarray(waveforms), 2.4)
    return sensor.read_amplitude(clean, repeats=repeats)


def _waveforms(exec_model, loops):
    return [exec_model.profile(loop).waveform for loop in loops]


def _loops():
    res_cycles = int(2.4e9 / PdnModel().params.resonant_freq_hz)
    return [
        InstructionLoop.of([InstrClass.INT_ALU] * 16),               # flat
        square_wave_loop(InstrClass.SIMD, InstrClass.NOP, res_cycles // 8),
        square_wave_loop(InstrClass.FP_MUL, InstrClass.NOP, res_cycles // 2),
        square_wave_loop(InstrClass.SIMD, InstrClass.NOP, res_cycles // 2),
    ]


def test_em_amplitude_non_negative(sensor, exec_model):
    assert (_read(sensor, _waveforms(exec_model, _loops())) >= 0.0).all()


def test_resonant_square_wave_reads_highest(sensor, exec_model):
    readings = _read(sensor, _waveforms(exec_model, _loops()), repeats=6)
    assert np.argmax(readings) == 3


def test_em_ranks_match_droop_ranks(sensor, exec_model):
    """The proxy property: EM ordering == droop ordering."""
    loops = _loops()
    em = _read(sensor, _waveforms(exec_model, loops), repeats=8)
    droop = [analyze_loop(loop).droop_v for loop in loops]
    assert np.argsort(em).tolist() == np.argsort(droop).tolist()


def test_em_correlates_with_droop_across_random_loops(exec_model):
    """Across random stimuli, EM amplitude ~ droop with r > 0.95."""
    rng = np.random.default_rng(3)
    sensor = EmSensor(seed=3, noise_floor=0.005)
    classes = list(InstrClass)
    loops = [InstructionLoop.of([classes[int(i)]
                                 for i in rng.integers(len(classes), size=48)])
             for _ in range(20)]
    em = _read(sensor, _waveforms(exec_model, loops), repeats=4)
    droop = [analyze_loop(loop).droop_v for loop in loops]
    r = np.corrcoef(em, droop)[0, 1]
    assert r > 0.95


def _square_waveform():
    model = ExecutionModel(window_cycles=2048)
    return model.profile(square_wave_loop(InstrClass.SIMD,
                                          InstrClass.NOP, 24)).waveform


def test_measurement_noise_present():
    noisy = EmSensor(seed=11, noise_floor=0.05)
    reads = set(_read(noisy, [_square_waveform()] * 5).tolist())
    assert len(reads) > 1  # distinct reads: real receivers are noisy


def test_averaging_reduces_noise():
    noisy = EmSensor(seed=11, noise_floor=0.05)
    waveforms = [_square_waveform()] * 32
    singles = _read(noisy, waveforms)
    averaged = _read(noisy, waveforms, repeats=8)
    assert averaged.std() < singles.std()


def test_peak_frequency_near_resonance(sensor, exec_model):
    loop = square_wave_loop(InstrClass.SIMD, InstrClass.NOP, 24)
    _, peak = sensor.clean_block(exec_model.profile(loop).waveform, 2.4)
    f_res = PdnModel().params.resonant_freq_hz
    assert abs(peak[0] - f_res) < f_res * 0.5


def test_invalid_configs_rejected():
    with pytest.raises(ConfigurationError):
        EmSensor(bandwidth_hz=0.0)
    sensor = EmSensor(seed=1)
    clean, _ = sensor.clean_block(np.ones(128), 2.4)
    with pytest.raises(ConfigurationError):
        sensor.read_amplitude(clean, repeats=0)
