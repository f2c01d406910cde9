"""Figure 8a: BER of DPBenches vs Rodinia workloads.

The paper's observations, all reproduced here:

- the random DPBench yields the highest BER (making it the
  representative characterization pattern);
- real workloads incur less BER than the random-pattern virus, both
  because their stored data differs from worst-case patterns and
  because frequent row accesses inherently refresh rows;
- across the four Rodinia applications BER varies by up to ~2.5x.

The measurement can be gated on the thermal rig: ``regulate=True`` (or
thermal faults in the driver's ``options``) first drives a testbed zone
to the setpoint with fault-tolerant regulation; an unrecoverable rig
fault quarantines the zone and the result comes back *invalid* with the
typed quarantine record -- BER is never reported from an untrusted
temperature. Recoverable faults re-regulate deterministically, so the
reported rows stay bit-identical to the clean run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.dram.errors_model import BitErrorModel, PatternKind
from repro.experiments.common import (
    RunOptions,
    format_quarantine_lines,
    format_table,
    regulate_to_setpoint,
)
from repro.rand import SeedLike
from repro.thermal.monitor import ZoneQuarantine
from repro.thermal.testbed import ThermalTestbed, ZoneConfig
from repro.units import RELAXED_REFRESH_S
from repro.workloads.rodinia import rodinia_suite

PAPER_MAX_WORKLOAD_VARIATION = 2.5


@dataclass(frozen=True)
class Figure8aResult:
    """BER per DPBench and per Rodinia workload.

    ``valid`` is False when the regulated measurement was quarantined
    before a trustworthy read existed; the BER tables are then empty and
    ``thermal_quarantine`` carries the typed zone records.
    """

    temp_c: float
    interval_s: float
    pattern_ber: Dict[str, float]
    workload_ber: Dict[str, float]
    valid: bool = True
    thermal_quarantine: Tuple[ZoneQuarantine, ...] = ()
    regulation_rounds: int = 0

    def rows(self) -> List[Tuple[str, str, float]]:
        rows = [("dpbench", name, ber)
                for name, ber in sorted(self.pattern_ber.items(),
                                        key=lambda kv: kv[1])]
        rows.extend(("rodinia", name, ber)
                    for name, ber in sorted(self.workload_ber.items(),
                                            key=lambda kv: kv[1]))
        return rows

    @property
    def random_is_worst_pattern(self) -> bool:
        """Whether the random DPBench dominates (False when invalid)."""
        if not self.pattern_ber:
            return False
        return self.pattern_ber["random"] == max(self.pattern_ber.values())

    @property
    def workloads_below_random_virus(self) -> bool:
        """Every workload under the random virus (False when invalid)."""
        if not self.pattern_ber or not self.workload_ber:
            return False
        return max(self.workload_ber.values()) < self.pattern_ber["random"]

    @property
    def workload_variation(self) -> float:
        """Max/min BER ratio across the Rodinia applications."""
        values = self.workload_ber.values()
        if not values:
            return 0.0
        return max(values) / min(values)

    def format(self) -> str:
        lines = [
            f"Figure 8a: BER at {self.interval_s}s refresh, {self.temp_c:.0f} degC"
        ]
        if not self.valid:
            lines.append("MEASUREMENT INVALID: thermal zone quarantined "
                         "before a trustworthy read existed")
            lines.extend(format_quarantine_lines(self.thermal_quarantine))
            return "\n".join(lines)
        lines.append(format_table(
            ("kind", "workload", "BER"),
            [(k, n, f"{b:.3e}") for k, n, b in self.rows()],
        ))
        lines.append(
            f"workload-to-workload variation {self.workload_variation:.1f}x "
            f"(paper: up to {PAPER_MAX_WORKLOAD_VARIATION}x); "
            f"random DPBench worst: {self.random_is_worst_pattern}; "
            f"all workloads below random virus: {self.workloads_below_random_virus}"
        )
        return "\n".join(lines)


def run_figure8a(seed: SeedLike = None, temp_c: float = 60.0,
                 interval_s: float = RELAXED_REFRESH_S,
                 regulate: bool = False,
                 options: RunOptions = RunOptions()) -> Figure8aResult:
    """Compute the Figure 8a BER comparison.

    With ``regulate`` (implied by thermal faults in ``options``) a
    single-zone testbed is first driven to ``temp_c`` under the
    fault-tolerant regulation loop; the BER model is evaluated only once
    the zone's belief is steady-in-band. An unrecoverable fault yields
    an *invalid* result carrying the quarantine record instead of BER
    rows measured at a wrong temperature.
    """
    plan = options.thermal_plan(1)
    regulate = regulate or plan is not None
    quarantines: Tuple[ZoneQuarantine, ...] = ()
    rounds_used = 0
    if regulate:
        testbed = ThermalTestbed(
            [ZoneConfig(setpoint_c=temp_c)], seed=seed,
            faults=plan.thermal_faults if plan is not None else ())
        rounds_used = regulate_to_setpoint(testbed, temp_c)
        quarantines = testbed.zone_quarantines()
        if quarantines:
            return Figure8aResult(
                temp_c=temp_c, interval_s=interval_s,
                pattern_ber={}, workload_ber={}, valid=False,
                thermal_quarantine=quarantines,
                regulation_rounds=rounds_used)

    model = BitErrorModel()
    pattern_ber = {
        kind.value: model.pattern_ber(kind, interval_s, temp_c)
        for kind in PatternKind
    }
    workload_ber = {}
    for workload in rodinia_suite():
        profile = workload.dram
        workload_ber[workload.name] = model.workload_ber(
            interval_s, temp_c,
            data_entropy=profile.data_entropy,
            hot_row_fraction=profile.hot_row_fraction,
        )
    return Figure8aResult(
        temp_c=temp_c,
        interval_s=interval_s,
        pattern_ber=pattern_ber,
        workload_ber=workload_ber,
        regulation_rounds=rounds_used,
    )


#: Uniform entry point: every experiment module exposes ``run(seed=...)``.
run = run_figure8a
