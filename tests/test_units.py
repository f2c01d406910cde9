"""Unit-convention helpers."""


import pytest

from repro import units


def test_celsius_to_kelvin_offset():
    assert units.celsius_to_kelvin(0.0) == pytest.approx(273.15)


def test_refresh_relaxation_factor_matches_paper():
    # "from the nominal 64ms to 2.283s" is the paper's "35x" relaxation.
    assert units.REFRESH_RELAX_FACTOR == pytest.approx(35.67, abs=0.01)


def test_percent_reduction_paper_example():
    # Figure 9: 31.1 W -> 24.8 W is quoted as 20.2 % savings.
    assert units.percent(31.1, 24.8) == pytest.approx(20.2, abs=0.1)


def test_percent_zero_before_raises():
    with pytest.raises(ZeroDivisionError):
        units.percent(0.0, 1.0)


def test_boltzmann_constant_value():
    assert units.BOLTZMANN_EV_PER_K == pytest.approx(8.617e-5, rel=1e-3)
