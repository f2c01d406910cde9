"""Workload-dependent Vmin predictor."""

import pytest

from repro.core.predictor import VminPredictor
from repro.errors import SearchError
from repro.workloads.spec import spec_suite, spec_workload


@pytest.fixture()
def trained(ttt_chip):
    """Predictor trained on oracle Vmin of the SPEC suite (weakest core)."""
    suite = spec_suite()
    core = ttt_chip.weakest_cores(1)[0]
    targets = [ttt_chip.vmin_mv(core, w.resonant_swing) for w in suite]
    predictor = VminPredictor()
    report = predictor.fit(suite, targets)
    return predictor, report, targets


def test_fit_produces_report(trained):
    _, report, _ = trained
    assert report.train_rmse_mv < 10.0
    assert len(report.coefficients) == 6


def test_conservative_bias_prevents_underprediction(trained):
    predictor, report, targets = trained
    assert report.max_underprediction_mv <= report.conservative_bias_mv + 1e-9
    for workload, target in zip(spec_suite(), targets):
        assert predictor.predict_mv(workload) >= target - 1e-6


def test_predictions_track_aggressiveness(trained):
    predictor, _, _ = trained
    assert predictor.predict_mv(spec_workload("milc")) > \
        predictor.predict_mv(spec_workload("mcf"))


def test_mix_prediction_above_members(trained):
    predictor, _, _ = trained
    members = [spec_workload(n) for n in ("mcf", "milc", "gcc")]
    mix_pred = predictor.predict_mix_mv(members)
    assert mix_pred > max(predictor.predict_mv(w) for w in members)


def test_predict_before_fit_rejected():
    predictor = VminPredictor()
    with pytest.raises(SearchError):
        predictor.predict_mv(spec_workload("mcf"))


def test_underdetermined_fit_rejected():
    predictor = VminPredictor()
    few = [spec_workload("mcf"), spec_workload("gcc")]
    with pytest.raises(SearchError):
        predictor.fit(few, [900.0, 905.0])


def test_misaligned_inputs_rejected():
    predictor = VminPredictor()
    with pytest.raises(SearchError):
        predictor.fit(spec_suite(), [900.0])


def test_empty_mix_rejected(trained):
    predictor, _, _ = trained
    with pytest.raises(SearchError):
        predictor.predict_mix_mv([])
