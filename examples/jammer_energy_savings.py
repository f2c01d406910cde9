#!/usr/bin/env python3
"""End-to-end guardband exploitation with the Jammer detector (Figure 9).

The paper's closing demonstration: run a realistic edge application --
a multi-instance wireless-spectrum jammer (DoS) detector -- at the safe
operating points discovered by characterization, and account the server
power saved per domain without violating the detector's QoS.

Run:  python examples/jammer_energy_savings.py
"""

from repro.analysis.server_power import server_power_report
from repro.core.safepoints import SafeOperatingPoint
from repro.dram.power import DramPowerModel
from repro.soc.corners import ProcessCorner
from repro.soc.domains import DomainName
from repro.soc.xgene2 import build_platform
from repro.units import NOMINAL_REFRESH_S, RELAXED_REFRESH_S
from repro.workloads.jammer import JAMMER_WORKLOAD, JammerDetector

SEED = 1


def main() -> None:
    platform = build_platform(ProcessCorner.TTT, seed=SEED)
    point = SafeOperatingPoint(pmd_mv=930.0, soc_mv=920.0,
                               trefp_s=RELAXED_REFRESH_S,
                               safety_margin_mv=10.0)

    print("programming the safe operating point's rails through SLIMpro:")
    applied_pmd = platform.slimpro.set_domain_voltage(DomainName.PMD,
                                                      point.pmd_mv)
    applied_soc = platform.slimpro.set_domain_voltage(DomainName.SOC,
                                                      point.soc_mv)
    print(f"  PMD {applied_pmd:.0f} mV (nominal 980), "
          f"SoC {applied_soc:.0f} mV (nominal 950)")
    print(f"  DRAM power accounted at TREFP {point.trefp_s:.3f} s "
          f"(nominal {NOMINAL_REFRESH_S:.3f})\n")

    print("running 4 parallel Jammer-detector instances...")
    detector = JammerDetector(instances=4, seed=SEED)
    run = detector.run(duration_s=2.0, burst_rate_hz=2.0,
                       processing_slowdown=1.0)
    print(f"  bursts injected {run.bursts_injected}, detected "
          f"{run.bursts_detected} (rate {run.detection_rate * 100:.0f}%), "
          f"false alarms {run.false_alarms}")
    print(f"  max detection latency {run.max_latency_s * 1000:.1f} ms, "
          f"QoS {'met' if run.qos_met else 'VIOLATED'}\n")

    report = server_power_report(platform, JAMMER_WORKLOAD, point,
                                 dram_model=DramPowerModel())
    print("per-domain power accounting:")
    print(f"  {'domain':8s} {'nominal W':>10s} {'scaled W':>9s} {'savings':>8s}")
    for domain, nominal, scaled, savings in report.rows():
        print(f"  {domain:8s} {nominal:10.2f} {scaled:9.2f} {savings:7.1f}%")
    print(f"\n  total: {report.total_nominal_w:.1f} W -> "
          f"{report.total_scaled_w:.1f} W "
          f"({report.total_savings_pct:.1f}% saved) -- paper: "
          f"31.1 W -> 24.8 W (20.2%)")

    print("\nwhat frequency scaling would have cost instead "
          "(the reason the paper undervolts at constant frequency):")
    slow = detector.run(duration_s=2.0, burst_rate_hz=2.0,
                        processing_slowdown=40.0)
    print(f"  at a 40x frame-processing slowdown the detector "
          f"{'still meets' if slow.qos_met else 'violates'} QoS "
          f"(detected {slow.bursts_detected}/{slow.bursts_injected})")


if __name__ == "__main__":
    main()
