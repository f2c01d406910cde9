"""Analytic BER model: pattern ordering and workload effects."""

import pytest

from repro.dram.errors_model import BitErrorModel, DataStressProfile, PatternKind
from repro.errors import ConfigurationError
from repro.units import RELAXED_REFRESH_S


@pytest.fixture()
def model() -> BitErrorModel:
    return BitErrorModel()


def test_pattern_ordering_matches_paper(model):
    """random > checkerboard > all-1s > all-0s (Liu et al. / Fig 8a)."""
    ber = {p: model.pattern_ber(p, RELAXED_REFRESH_S, 60.0) for p in PatternKind}
    assert ber[PatternKind.RANDOM] > ber[PatternKind.CHECKERBOARD]
    assert ber[PatternKind.CHECKERBOARD] > ber[PatternKind.ALL_ONES]
    assert ber[PatternKind.ALL_ONES] > ber[PatternKind.ALL_ZEROS]


def test_solid_patterns_split_by_orientation(model):
    ones = model.pattern_stress(PatternKind.ALL_ONES)
    zeros = model.pattern_stress(PatternKind.ALL_ZEROS)
    assert ones.charged_fraction + zeros.charged_fraction == pytest.approx(1.0)
    assert ones.coupling == zeros.coupling == 1.0


def test_entropy_interpolates_to_random(model):
    full = model.entropy_stress(1.0)
    random_stress = model.pattern_stress(PatternKind.RANDOM)
    assert full.charged_fraction == pytest.approx(random_stress.charged_fraction)
    assert full.coupling == pytest.approx(random_stress.coupling)


def test_entropy_zero_behaves_like_solid(model):
    low = model.entropy_stress(0.0)
    assert low.coupling == pytest.approx(1.0)


def test_workload_ber_below_random_virus(model):
    virus = model.pattern_ber(PatternKind.RANDOM, RELAXED_REFRESH_S, 60.0)
    workload = model.workload_ber(RELAXED_REFRESH_S, 60.0,
                                  data_entropy=0.9, hot_row_fraction=0.5)
    assert workload < virus


def test_hot_rows_suppress_errors(model):
    cold = model.workload_ber(RELAXED_REFRESH_S, 60.0, 0.8, hot_row_fraction=0.0)
    hot = model.workload_ber(RELAXED_REFRESH_S, 60.0, 0.8, hot_row_fraction=0.9)
    assert hot < cold
    assert hot == pytest.approx(cold * 0.1, rel=1e-6)


def test_fully_hot_workload_error_free(model):
    assert model.workload_ber(RELAXED_REFRESH_S, 60.0, 0.8,
                              hot_row_fraction=1.0) == 0.0


def test_ber_increases_with_temperature(model):
    cool = model.pattern_ber(PatternKind.RANDOM, RELAXED_REFRESH_S, 50.0)
    warm = model.pattern_ber(PatternKind.RANDOM, RELAXED_REFRESH_S, 60.0)
    assert warm > cool


def test_invalid_inputs_rejected(model):
    with pytest.raises(ConfigurationError):
        model.workload_ber(RELAXED_REFRESH_S, 60.0, 1.5, 0.5)
    with pytest.raises(ConfigurationError):
        model.workload_ber(RELAXED_REFRESH_S, 60.0, 0.5, 1.5)
    with pytest.raises(ConfigurationError):
        DataStressProfile(charged_fraction=0.5, coupling=0.5)
