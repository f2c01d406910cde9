"""Figure 9: end-to-end Jammer-detector run at the safe operating point.

The paper's closing experiment: four parallel Jammer-detector instances
run with the PMD rail at 930 mV, the SoC rail at 920 mV and the refresh
period relaxed 35x. Total server power drops from 31.1 W to 24.8 W
(20.2 %) with the per-domain savings at 20.3 % (PMD), 6.9 % (SoC) and
33.3 % (DRAM), all without violating the detector's QoS constraint.

The driver exercises the full exploitation pipeline: characterization
report -> safe-point selection -> per-domain power accounting -> a real
(simulated) detection run whose QoS verdict gates the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.server_power import ServerPowerReport, server_power_report
from repro.core.margins import guardband_report
from repro.core.safepoints import SafeOperatingPoint, select_safe_points
from repro.core.vmin import VminSearch
from repro.dram.power import DramPowerModel
from repro.experiments.common import vmin_searches, format_table
from repro.experiments.fig6_virus_vs_nas import virus_as_workload
from repro.rand import SeedLike
from repro.soc.corners import ProcessCorner
from repro.soc.xgene2 import build_platform
from repro.viruses.didt import evolve_didt_virus
from repro.workloads.jammer import JAMMER_WORKLOAD, JammerDetector, JammerRunReport
from repro.workloads.spec import spec_suite

#: The paper's reported outcome.
PAPER_TOTAL_NOMINAL_W = 31.1
PAPER_TOTAL_SCALED_W = 24.8
PAPER_TOTAL_SAVINGS_PCT = 20.2
PAPER_DOMAIN_SAVINGS_PCT: Dict[str, float] = {
    "PMD": 20.3, "SoC": 6.9, "DRAM": 33.3,
}
PAPER_OPERATING_POINT = {"pmd_mv": 930.0, "soc_mv": 920.0}


@dataclass(frozen=True)
class Figure9Result:
    """Safe point, power report, and the QoS-gated detection run."""

    point: SafeOperatingPoint
    power: ServerPowerReport
    detection: JammerRunReport

    @property
    def qos_met(self) -> bool:
        return self.detection.qos_met

    def rows(self) -> List[Tuple[str, float, float, float]]:
        return [(d, n, s, pct) for d, n, s, pct in self.power.rows()]

    def format(self) -> str:
        lines = ["Figure 9: server power, nominal vs undervolted Jammer run"]
        lines.append(format_table(
            ("domain", "nominal W", "scaled W", "savings %"),
            [(d, f"{n:.2f}", f"{s:.2f}", f"{p:.1f}") for d, n, s, p in self.rows()],
        ))
        lines.append(
            f"total {self.power.total_nominal_w:.1f} -> {self.power.total_scaled_w:.1f} W "
            f"({self.power.total_savings_pct:.1f}%); paper "
            f"{PAPER_TOTAL_NOMINAL_W} -> {PAPER_TOTAL_SCALED_W} W "
            f"({PAPER_TOTAL_SAVINGS_PCT}%)"
        )
        lines.append(
            f"operating point PMD {self.point.pmd_mv:.0f} mV / SoC "
            f"{self.point.soc_mv:.0f} mV / TREFP {self.point.trefp_s:.3f}s; "
            f"QoS {'met' if self.qos_met else 'VIOLATED'} "
            f"(detected {self.detection.bursts_detected}/{self.detection.bursts_injected}, "
            f"max latency {self.detection.max_latency_s * 1000:.1f} ms)"
        )
        return "\n".join(lines)


def run_figure9(seed: SeedLike = None, repetitions: int = 10,
                characterize: bool = True) -> Figure9Result:
    """Run the full exploitation pipeline on the TTT platform.

    With ``characterize=True`` the safe point is *derived* by running
    the characterization (SPEC suite + virus on the weakest core, then
    the selection policy); otherwise the paper's published point is
    programmed directly.
    """
    platform = build_platform(ProcessCorner.TTT, seed=seed)

    if characterize:
        searches = vmin_searches(seed=seed, repetitions=repetitions)
        search: VminSearch = searches[ProcessCorner.TTT]
        chip = search.executor.chip
        # Workload limits on the weakest core (the binding constraint for
        # a chip-wide rail); the virus margin on the robust core, as in
        # the Figure 7 measurement the paper's deployment analysis uses.
        weakest = chip.weakest_cores(1)[0]
        robust = chip.strongest_core()
        workload_results = search.search_suite(spec_suite(), cores=(weakest,))
        virus = evolve_didt_virus(seed=seed, generations=20, population=28)
        virus_result = search.search(virus_as_workload(virus), cores=(robust,))
        report = guardband_report(chip.serial, chip.corner.value,
                                  workload_results, virus_result)
        point = select_safe_points(report, dram_all_corrected=True)
    else:
        point = SafeOperatingPoint(
            pmd_mv=PAPER_OPERATING_POINT["pmd_mv"],
            soc_mv=PAPER_OPERATING_POINT["soc_mv"],
            trefp_s=2.283,
            safety_margin_mv=10.0,
        )

    # Program the board through SLIMpro (validates regulator ranges).
    from repro.soc.domains import DomainName
    platform.slimpro.set_domain_voltage(DomainName.PMD, point.pmd_mv)
    platform.slimpro.set_domain_voltage(DomainName.SOC, point.soc_mv)

    power = server_power_report(platform, JAMMER_WORKLOAD, point,
                                dram_model=DramPowerModel())
    detector = JammerDetector(instances=4, seed=seed)
    detection = detector.run(duration_s=2.0, burst_rate_hz=2.0,
                             processing_slowdown=1.0)
    return Figure9Result(point=point, power=power, detection=detection)


#: Uniform entry point: every experiment module exposes ``run(seed=...)``.
run = run_figure9
