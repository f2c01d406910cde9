"""Power-delivery-network model: impedance, resonance, droop."""

import numpy as np
import pytest

from repro.cpu.execution import ExecutionModel
from repro.cpu.isa import InstrClass
from repro.cpu.kernels import InstructionLoop, square_wave_loop
from repro.errors import ConfigurationError
from repro.pdn.droop import analyze_loop
from repro.pdn.rlc import DEFAULT_PDN, PdnModel, PdnParams


def test_default_resonance_near_50mhz():
    assert DEFAULT_PDN.resonant_freq_hz == pytest.approx(50e6, rel=0.02)


def test_quality_factor_moderate():
    assert 2.0 < DEFAULT_PDN.quality_factor < 5.0


def test_impedance_peaks_at_resonance():
    model = PdnModel()
    f_res = model.params.resonant_freq_hz
    freqs = np.array([f_res / 4, f_res / 2, f_res, f_res * 2, f_res * 4])
    z = model.impedance_ohm(freqs)
    assert np.argmax(z) == 2


def test_impedance_dc_is_series_resistance():
    model = PdnModel()
    z0 = model.impedance_ohm(np.array([0.0]))[0]
    assert z0 == pytest.approx(model.params.resistance_ohm)


def test_peak_impedance_scales_with_q():
    low_q = PdnModel(PdnParams(0.01, DEFAULT_PDN.inductance_h,
                               DEFAULT_PDN.capacitance_f))
    high_q = PdnModel(PdnParams(0.001, DEFAULT_PDN.inductance_h,
                                DEFAULT_PDN.capacitance_f))
    assert high_q.peak_impedance_ohm() > low_q.peak_impedance_ohm()


def test_negative_elements_rejected():
    with pytest.raises(ConfigurationError):
        PdnParams(-1.0, 1e-12, 1e-9)


def test_resonant_square_wave_worst_droop():
    """A square wave at the resonance out-droops off-resonance ones."""
    model = PdnModel()
    exec_model = ExecutionModel(window_cycles=4096)
    res_cycles = 2.4e9 / model.params.resonant_freq_hz
    on_res = square_wave_loop(InstrClass.SIMD, InstrClass.NOP,
                              int(res_cycles / 2))
    off_res = square_wave_loop(InstrClass.SIMD, InstrClass.NOP,
                               int(res_cycles / 8))
    droop_on = model.worst_droop_v(exec_model.profile(on_res).waveform, 2.4)
    droop_off = model.worst_droop_v(exec_model.profile(off_res).waveform, 2.4)
    assert droop_on > droop_off


def test_swing_of_resonant_square_wave_is_one():
    res_cycles = 2.4e9 / DEFAULT_PDN.resonant_freq_hz
    loop = square_wave_loop(InstrClass.SIMD, InstrClass.NOP,
                            int(round(res_cycles / 2)))
    assert analyze_loop(loop).resonant_swing == pytest.approx(1.0)


def test_swing_of_flat_loop_near_zero():
    loop = InstructionLoop.of([InstrClass.INT_ALU] * 16)
    assert analyze_loop(loop).resonant_swing < 0.05


def test_swing_bounded_to_unit_interval():
    for body in ([InstrClass.SIMD, InstrClass.NOP] * 16,
                 [InstrClass.FP_FMA] * 8 + [InstrClass.SERIALIZE] * 8):
        swing = analyze_loop(InstructionLoop.of(body)).resonant_swing
        assert 0.0 <= swing <= 1.0


def test_analysis_reports_consistent_droop():
    loop = square_wave_loop(InstrClass.SIMD, InstrClass.NOP, 24)
    analysis = analyze_loop(loop)
    assert analysis.droop_mv == pytest.approx(analysis.droop_v * 1000.0)
    assert analysis.droop_v > 0


def test_short_waveform_rejected():
    model = PdnModel()
    with pytest.raises(ConfigurationError):
        model.droop_spectrum(np.ones(4), 2.4)
