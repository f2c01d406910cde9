"""Retention-time statistics: Arrhenius, tail math, calibration."""

import math

import pytest

from repro.dram.retention import (
    DEFAULT_RETENTION,
    RetentionModel,
    RetentionParams,
    _normal_cdf,
    _normal_icdf,
)
from repro.errors import ConfigurationError
from repro.units import RELAXED_REFRESH_S


@pytest.fixture()
def model() -> RetentionModel:
    return RetentionModel()


def test_acceleration_identity_at_reference(model):
    assert model.acceleration(50.0) == pytest.approx(1.0)


def test_acceleration_doubles_per_ten_degrees(model):
    # 0.64 eV halves retention roughly every 10 degC around 55 degC.
    assert model.acceleration(60.0) == pytest.approx(2.0, rel=0.02)


def test_acceleration_below_reference_slows(model):
    assert model.acceleration(40.0) < 1.0


def test_fail_probability_monotonic_in_interval(model):
    probs = [model.fail_probability(t, 60.0) for t in (0.064, 0.5, 2.283, 8.0)]
    assert probs == sorted(probs)


def test_fail_probability_monotonic_in_temperature(model):
    probs = [model.fail_probability(2.283, t) for t in (40.0, 50.0, 60.0)]
    assert probs == sorted(probs)


def test_nominal_refresh_is_error_free(model):
    # At the 64 ms JEDEC interval even 60 degC must show ~zero failures
    # across the whole 3.9e10-bit board.
    board_bits = 72 * 65536 * 8192
    assert board_bits * model.fail_probability(0.064, 60.0) < 1e-3


def test_table1_calibration_at_50c(model):
    # Aggregate per-bank-index expectation ~200 at (2.283 s, 50 degC).
    per_bank_bits = 65536 * 8192
    expected = 72 * per_bank_bits * model.fail_probability(
        RELAXED_REFRESH_S, 50.0, coupling=model.params.coupling_random)
    assert 150 < expected < 280


def test_table1_calibration_at_60c(model):
    per_bank_bits = 65536 * 8192
    expected = 72 * per_bank_bits * model.fail_probability(
        RELAXED_REFRESH_S, 60.0, coupling=model.params.coupling_random)
    assert 2800 < expected < 4400


def test_temperature_amplification_matches_paper(model):
    # Table I: ~17x more weak cells at 60 degC than 50 degC.
    ratio = model.fail_probability(RELAXED_REFRESH_S, 60.0, 1.21) / \
        model.fail_probability(RELAXED_REFRESH_S, 50.0, 1.21)
    assert 14.0 < ratio < 22.0


def test_coupling_increases_failures(model):
    base = model.fail_probability(2.283, 60.0, coupling=1.0)
    coupled = model.fail_probability(2.283, 60.0,
                                     coupling=model.params.coupling_random)
    assert coupled > base


def test_quantile_retention_inverts_cdf(model):
    for p in (1e-8, 1e-6, 1e-4, 0.5):
        t = model.quantile_retention_s(p)
        z = (math.log(t) - model.params.ln_median_s) / model.params.ln_sigma
        assert _normal_cdf(z) == pytest.approx(p, rel=1e-6)


def test_tail_sample_stays_in_tail(model):
    tail_p = model.fail_probability(4.0, 62.0, 1.21)
    threshold = model.effective_threshold_s(4.0, 62.0, 1.21)
    for u in (0.001, 0.25, 0.5, 0.999):
        t = model.tail_sample_retention_s(u, tail_p)
        assert t <= threshold * 1.0001


def test_normal_icdf_roundtrip():
    for p in (1e-9, 1e-5, 0.1, 0.5, 0.9, 1 - 1e-6):
        assert _normal_cdf(_normal_icdf(p)) == pytest.approx(p, rel=1e-5)


def test_icdf_rejects_boundaries():
    with pytest.raises(ConfigurationError):
        _normal_icdf(0.0)
    with pytest.raises(ConfigurationError):
        _normal_icdf(1.0)


def test_invalid_params_rejected():
    with pytest.raises(ConfigurationError):
        RetentionParams(ln_sigma=0.0)
    with pytest.raises(ConfigurationError):
        RetentionParams(true_cell_fraction=1.5)
    with pytest.raises(ConfigurationError):
        RetentionParams(coupling_random=0.9)
    model = RetentionModel()
    with pytest.raises(ConfigurationError):
        model.fail_probability(-1.0, 50.0)
