"""Per-cell DRAM retention-time statistics.

Model structure (following the experimental findings of Liu et al. [19],
the paper's reference for data-retention behaviour):

- Cell retention times at a reference temperature follow a lognormal
  distribution; only the far-left *weak tail* matters at the refresh
  intervals studied (seconds).
- Temperature accelerates leakage with Arrhenius behaviour; the default
  activation energy of 0.64 eV halves retention roughly every 10 degC
  around 55 degC -- which is what turns the paper's 50 -> 60 degC step
  into a ~17x increase in weak-cell counts (Table I).
- Data-pattern dependence: a cell can only lose charge it stores, so a
  cell is *stressed* only when holding its charged state (true-cells
  store charge for '1', anti-cells for '0'); neighbouring bit transitions
  add coupling noise that effectively lengthens the observation threshold
  (random > checkerboard > solid patterns).

Calibration: the defaults place the weak-tail mass so that the 72-device
population shows ~200 failing locations per bank index at (2.283 s,
50 degC) and ~3500 at 60 degC under the union of data-pattern benchmarks
-- the paper's Table I, read as board-level aggregates. (The per-device
reading would put thousands of weak bits in every bank, which would
force double-bit words and contradict the paper's "all manifested errors
are corrected by ECC"; the aggregate reading keeps per-device counts
low enough for SECDED to correct everything, exactly as reported.)
See DESIGN.md section 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import ConfigurationError
from repro.units import BOLTZMANN_EV_PER_K, celsius_to_kelvin


def _normal_cdf(z: float) -> float:
    """Standard normal CDF via erfc (accurate in the far tail)."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
             1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
             6.680131188771972e+01, -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
             -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
             3.754408661907416e+00)


def _acklam_tail(q: np.ndarray) -> np.ndarray:
    """Acklam tail branch as a function of ``q = sqrt(-2 ln p)``."""
    c, d = _ACKLAM_C, _ACKLAM_D
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)


def _normal_icdf_array(p: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF over a float64 array.

    Acklam's rational approximation, accurate to ~1e-9 over (0, 1): good
    enough for tail sampling, where the CDF side is the precision-critical
    direction. The per-cell tail sampling of a whole bank is a handful of
    array ops.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.size and (float(p.min()) <= 0.0 or float(p.max()) >= 1.0):
        bad = p[(p <= 0.0) | (p >= 1.0)][0]
        raise ConfigurationError(f"probability {bad} outside (0, 1)")
    out = np.empty_like(p)
    p_low = 0.02425

    low = p < p_low
    if low.any():
        q = np.sqrt(-2.0 * np.log(p[low]))
        out[low] = _acklam_tail(q)
    high = p > 1.0 - p_low
    if high.any():
        q = np.sqrt(-2.0 * np.log(1.0 - p[high]))
        out[high] = -_acklam_tail(q)
    mid = ~(low | high)
    if mid.any():
        a, b = _ACKLAM_A, _ACKLAM_B
        q = p[mid] - 0.5
        r = q * q
        out[mid] = \
            (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    return out


@dataclass(frozen=True)
class RetentionParams:
    """Parameters of the retention-time population.

    Attributes
    ----------
    ln_median_s:
        Natural log of the median cell retention time (s) at the
        reference temperature.
    ln_sigma:
        Lognormal shape parameter (sigma of ln t_ret).
    activation_ev:
        Arrhenius activation energy (eV) of the leakage mechanism.
    reference_temp_c:
        Temperature (degC) at which ``ln_median_s`` is specified.
    true_cell_fraction:
        Fraction of cells that are true-cells (charged when storing 1).
    coupling_random / coupling_checker:
        Effective threshold multipliers for random and checkerboard data
        (solid patterns define 1.0). Multiplying the observation interval
        by the coupling factor models the extra leakage induced by
        aggressor bit transitions.
    """

    ln_median_s: float = 8.944
    ln_sigma: float = 1.386
    activation_ev: float = 0.64
    reference_temp_c: float = 50.0
    true_cell_fraction: float = 0.55
    coupling_random: float = 1.21
    coupling_checker: float = 1.13

    def __post_init__(self) -> None:
        if self.ln_sigma <= 0:
            raise ConfigurationError("ln_sigma must be positive")
        if self.activation_ev <= 0:
            raise ConfigurationError("activation energy must be positive")
        if not 0.0 < self.true_cell_fraction < 1.0:
            raise ConfigurationError("true_cell_fraction must be in (0, 1)")
        if self.coupling_random < 1.0 or self.coupling_checker < 1.0:
            raise ConfigurationError("coupling factors are >= 1 by definition")


DEFAULT_RETENTION = RetentionParams()


@lru_cache(maxsize=1024)
def _cached_acceleration(params: RetentionParams, temp_c: float) -> float:
    """Memoized Arrhenius factor; see :meth:`RetentionModel.acceleration`.

    ``RetentionParams`` is frozen (hashable), and profiling sweeps ask
    for the same handful of ``(params, temp)`` pairs hundreds of
    thousands of times -- once per bank query -- so a small cache
    removes the repeated ``exp`` from the hot path.
    """
    t_ref = celsius_to_kelvin(params.reference_temp_c)
    t = celsius_to_kelvin(temp_c)
    exponent = params.activation_ev / BOLTZMANN_EV_PER_K * (1.0 / t_ref - 1.0 / t)
    return math.exp(exponent)


@lru_cache(maxsize=65536)
def _cached_fail_probability(params: RetentionParams, interval_s: float,
                             temp_c: float, coupling: float) -> float:
    """Memoized stressed-cell failure probability.

    Keyed on the full ``(params, interval, temp, coupling)`` condition;
    every bank of every device queries the same few conditions during a
    Table-I style sweep.
    """
    if interval_s <= 0:
        raise ConfigurationError("interval must be positive")
    theta = interval_s * _cached_acceleration(params, temp_c) * coupling
    z = (math.log(theta) - params.ln_median_s) / params.ln_sigma
    return _normal_cdf(z)


class RetentionModel:
    """Analytic queries over the retention population."""

    def __init__(self, params: RetentionParams = DEFAULT_RETENTION) -> None:
        self.params = params

    def acceleration(self, temp_c: float) -> float:
        """Arrhenius retention-time acceleration vs the reference temp.

        > 1 above the reference temperature (retention gets shorter);
        the effective observation threshold scales by this factor.
        """
        return _cached_acceleration(self.params, temp_c)

    def effective_threshold_s(self, interval_s: float, temp_c: float,
                              coupling: float = 1.0) -> float:
        """Reference-temperature retention threshold for failure.

        A cell fails when ``t_ret(ref) < interval * acceleration(T) *
        coupling``.
        """
        if interval_s <= 0:
            raise ConfigurationError("interval must be positive")
        return interval_s * self.acceleration(temp_c) * coupling

    def fail_probability(self, interval_s: float, temp_c: float,
                         coupling: float = 1.0) -> float:
        """P(cell retention < effective threshold) for a *stressed* cell.

        Memoized per ``(params, interval, temp, coupling)`` condition --
        the per-bank hot path of the Table I sweep.
        """
        return _cached_fail_probability(self.params, interval_s, temp_c,
                                        coupling)
