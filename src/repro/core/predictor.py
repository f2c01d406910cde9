"""Workload-dependent Vmin predictor (paper Section IV.D, ref [11]).

The paper proposes predicting a workload's safe Vmin from performance
counters so a Linux governor can pick operating points online without
re-running the full characterization. We implement the reference-[11]
style model: ordinary least squares from counter features to measured
Vmin, with a conservative bias term chosen so the training residuals
never under-predict (a predictor that under-predicts Vmin crashes
machines; one that over-predicts merely wastes a few millivolts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import SearchError
from repro.workloads.base import Workload


@dataclass(frozen=True)
class PredictorReport:
    """Training summary of a fitted predictor."""

    train_rmse_mv: float
    max_underprediction_mv: float
    conservative_bias_mv: float
    coefficients: Tuple[float, ...]


class VminPredictor:
    """Linear Vmin model over workload counter features."""

    def __init__(self) -> None:
        self._weights: Optional[np.ndarray] = None
        self._bias_mv = 0.0

    def fit(self, workloads: Sequence[Workload],
            vmin_mv: Sequence[float]) -> PredictorReport:
        """Fit OLS weights plus the conservative bias.

        Requires at least as many training workloads as features.
        """
        if len(workloads) != len(vmin_mv):
            raise SearchError("workloads and targets must align")
        features = np.stack([w.cpu.predictor_features() for w in workloads])
        targets = np.asarray(vmin_mv, dtype=float)
        if features.shape[0] < features.shape[1]:
            raise SearchError(
                f"need >= {features.shape[1]} training workloads, "
                f"got {features.shape[0]}"
            )
        weights, *_ = np.linalg.lstsq(features, targets, rcond=None)
        raw_pred = features @ weights
        residuals = targets - raw_pred  # positive = under-prediction
        bias = max(0.0, float(residuals.max()))
        self._weights = weights
        self._bias_mv = bias
        return PredictorReport(
            train_rmse_mv=float(np.sqrt(np.mean(residuals ** 2))),
            max_underprediction_mv=float(residuals.max()),
            conservative_bias_mv=bias,
            coefficients=tuple(float(w) for w in weights),
        )

    def predict_mv(self, workload: Workload) -> float:
        """Predicted safe Vmin for one workload (bias included)."""
        if self._weights is None:
            raise SearchError("predictor used before fit()")
        raw = float(workload.cpu.predictor_features() @ self._weights)
        return raw + self._bias_mv

    def predict_mix_mv(self, workloads: Sequence[Workload],
                       interference_mv: float = 2.0) -> float:
        """Predicted safe voltage for a multiprogram mix.

        The mix prediction is the maximum member prediction plus a small
        interference allowance -- the scheduling-assist use the paper
        sketches ("the predictor ... can also assist task scheduling").
        """
        if not workloads:
            raise SearchError("empty mix")
        return max(self.predict_mv(w) for w in workloads) + interference_mv
