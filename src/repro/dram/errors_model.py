"""Analytic bit-error-rate estimation for workloads and patterns.

Combines the retention statistics, data-pattern stress, and access-driven
inherent refresh into the BER a workload observes at a given refresh
period and temperature -- the Figure 8a quantity. Analytic expectations
keep the experiment drivers fast; the sampled weak cells provide the
matching concrete-sample view where needed (Table I, ECC tests).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.dram.retention import DEFAULT_RETENTION, RetentionModel
from repro.errors import ConfigurationError


class PatternKind(enum.Enum):
    """The paper's data-pattern benchmarks (DPBenches)."""

    ALL_ZEROS = "all0"
    ALL_ONES = "all1"
    CHECKERBOARD = "checkerboard"
    RANDOM = "random"


@dataclass(frozen=True)
class DataStressProfile:
    """How a body of stored data stresses weak cells.

    Attributes
    ----------
    charged_fraction:
        Expected fraction of weak cells holding their charged (leaky)
        state under this data.
    coupling:
        Effective threshold multiplier from aggressor bit transitions
        (1.0 = solid pattern, up to the retention model's random-pattern
        coupling).
    """

    charged_fraction: float
    coupling: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.charged_fraction <= 1.0:
            raise ConfigurationError("charged_fraction must be in [0, 1]")
        if self.coupling < 1.0:
            raise ConfigurationError("coupling factor is >= 1 by definition")


class BitErrorModel:
    """BER calculator over a retention model."""

    def __init__(self, retention: RetentionModel = None) -> None:
        self.retention = retention or RetentionModel(DEFAULT_RETENTION)

    # ------------------------------------------------------------------
    # Stress profiles
    # ------------------------------------------------------------------
    def pattern_stress(self, pattern: PatternKind) -> DataStressProfile:
        """Stress profile of a DPBench pattern.

        Solid patterns charge only one cell orientation; checkerboard
        and random charge half the cells each but add coupling noise
        (random the most), matching the ordering reported both by the
        paper and by Liu et al. [19].
        """
        params = self.retention.params
        if pattern is PatternKind.ALL_ZEROS:
            return DataStressProfile(1.0 - params.true_cell_fraction, 1.0)
        if pattern is PatternKind.ALL_ONES:
            return DataStressProfile(params.true_cell_fraction, 1.0)
        if pattern is PatternKind.CHECKERBOARD:
            return DataStressProfile(0.5, params.coupling_checker)
        return DataStressProfile(0.5, params.coupling_random)

    def entropy_stress(self, data_entropy: float) -> DataStressProfile:
        """Stress profile for real-application data of given entropy.

        ``data_entropy`` in [0, 1]: 0 behaves like a solid pattern
        (mostly zeros -- common for sparse numeric workloads), 1 like the
        random pattern. Charged fraction and coupling interpolate between
        the solid-zeros and random profiles.
        """
        if not 0.0 <= data_entropy <= 1.0:
            raise ConfigurationError("data_entropy must be in [0, 1]")
        params = self.retention.params
        solid = self.pattern_stress(PatternKind.ALL_ZEROS)
        charged = solid.charged_fraction + (0.5 - solid.charged_fraction) * data_entropy
        coupling = 1.0 + (params.coupling_random - 1.0) * data_entropy
        return DataStressProfile(charged, coupling)

    # ------------------------------------------------------------------
    # BER
    # ------------------------------------------------------------------
    def pattern_ber(self, pattern: PatternKind, interval_s: float,
                    temp_c: float) -> float:
        """Expected BER of a DPBench at (interval, temperature).

        DPBenches write the pattern, idle for the refresh interval, then
        read back -- no inherent refresh is in play.
        """
        stress = self.pattern_stress(pattern)
        return stress.charged_fraction * self.retention.fail_probability(
            interval_s, temp_c, stress.coupling)

    def workload_ber(self, interval_s: float, temp_c: float,
                     data_entropy: float, hot_row_fraction: float) -> float:
        """Expected BER of a real workload.

        ``hot_row_fraction`` is the share of the workload's resident rows
        whose access interval stays below the refresh period -- those
        rows are inherently refreshed and contribute (almost) no errors.
        The rest see the full exposure with the workload's data stress.
        """
        if not 0.0 <= hot_row_fraction <= 1.0:
            raise ConfigurationError("hot_row_fraction must be in [0, 1]")
        stress = self.entropy_stress(data_entropy)
        cold = 1.0 - hot_row_fraction
        return cold * stress.charged_fraction * self.retention.fail_probability(
            interval_s, temp_c, stress.coupling)
