"""Property-based tests of the retention model (hypothesis)."""

import math

from hypothesis import assume, given, settings, strategies as st

from repro.dram.retention import RetentionModel, _normal_cdf, _normal_icdf
import pytest

#: Heavy module: deselected from the smoke tier (``pytest -m "not slow"``).
pytestmark = pytest.mark.slow


MODEL = RetentionModel()

intervals = st.floats(min_value=1e-3, max_value=64.0,
                      allow_nan=False, allow_infinity=False)
temps = st.floats(min_value=20.0, max_value=90.0,
                  allow_nan=False, allow_infinity=False)
couplings = st.floats(min_value=1.0, max_value=1.5,
                      allow_nan=False, allow_infinity=False)
probabilities = st.floats(min_value=1e-12, max_value=1.0 - 1e-12,
                          allow_nan=False, allow_infinity=False)


@given(interval=intervals, temp=temps, coupling=couplings)
@settings(max_examples=300, deadline=None)
def test_fail_probability_is_a_probability(interval, temp, coupling):
    p = MODEL.fail_probability(interval, temp, coupling)
    assert 0.0 <= p <= 1.0


@given(a=intervals, b=intervals, temp=temps)
@settings(max_examples=200, deadline=None)
def test_monotone_in_interval(a, b, temp):
    assume(a < b)
    assert MODEL.fail_probability(a, temp) <= MODEL.fail_probability(b, temp)


@given(interval=intervals, a=temps, b=temps)
@settings(max_examples=200, deadline=None)
def test_monotone_in_temperature(interval, a, b):
    assume(a < b)
    assert MODEL.fail_probability(interval, a) <= \
        MODEL.fail_probability(interval, b)


@given(t1=temps, t2=temps, t3=temps)
@settings(max_examples=200, deadline=None)
def test_acceleration_composes(t1, t2, t3):
    """Arrhenius acceleration is transitive: a(T1->T3) = a(T1->T2)*a(T2->T3).

    Expressed through the model's reference-anchored acceleration.
    """
    a1 = MODEL.acceleration(t1)
    a2 = MODEL.acceleration(t2)
    a3 = MODEL.acceleration(t3)
    # acceleration(t) relative to ref; ratios must compose.
    assert math.isclose((a3 / a1), (a3 / a2) * (a2 / a1), rel_tol=1e-9)


@given(p=probabilities)
@settings(max_examples=300, deadline=None)
def test_icdf_cdf_roundtrip(p):
    assert math.isclose(_normal_cdf(_normal_icdf(p)), p,
                        rel_tol=1e-4, abs_tol=1e-12)


@given(u=st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
       tail=st.floats(min_value=1e-9, max_value=0.5))
@settings(max_examples=300, deadline=None)
def test_tail_samples_bounded_by_tail_quantile(u, tail):
    sample = MODEL.tail_sample_retention_s(u, tail)
    bound = MODEL.quantile_retention_s(tail)
    assert sample <= bound * (1 + 1e-9)
