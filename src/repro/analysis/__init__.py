"""Savings projections and power accounting.

Aggregation layer between the characterization results and the paper's
headline numbers:

- :mod:`repro.analysis.tradeoff` -- the Figure 5 power/performance
  ladder (per-PMD frequency scaling against a shared voltage rail);
- :mod:`repro.analysis.server_power` -- per-domain server power at an
  operating point (the Figure 9 accounting).

Library helpers no experiment driver calls, kept with their unit tests:

- :mod:`repro.analysis.energy` -- energy/power reduction arithmetic;
- :mod:`repro.analysis.scheduling` -- Vmin-aware workload placement.
"""

from repro.analysis.energy import energy_savings_pct, power_savings_pct
from repro.analysis.reporting import ReproductionReport, build_report
from repro.analysis.scheduling import (
    PlacementPlan,
    plan_naive,
    plan_placement,
    scheduling_advantage,
)
from repro.analysis.server_power import ServerPowerReport, server_power_report
from repro.analysis.tradeoff import TradeoffPoint, tradeoff_ladder

__all__ = [
    "PlacementPlan",
    "ReproductionReport",
    "ServerPowerReport",
    "TradeoffPoint",
    "build_report",
    "energy_savings_pct",
    "plan_naive",
    "plan_placement",
    "power_savings_pct",
    "scheduling_advantage",
    "server_power_report",
    "tradeoff_ladder",
]
