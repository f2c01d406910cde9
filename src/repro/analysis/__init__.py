"""Savings projections and power accounting.

Aggregation layer between the characterization results and the paper's
headline numbers:

- :mod:`repro.analysis.tradeoff` -- the Figure 5 power/performance
  ladder (per-PMD frequency scaling against a shared voltage rail);
- :mod:`repro.analysis.server_power` -- per-domain server power at an
  operating point (the Figure 9 accounting).
"""

from repro.analysis.reporting import ReproductionReport, build_report
from repro.analysis.server_power import ServerPowerReport, server_power_report
from repro.analysis.tradeoff import TradeoffPoint, tradeoff_ladder

__all__ = [
    "ReproductionReport",
    "ServerPowerReport",
    "TradeoffPoint",
    "build_report",
    "server_power_report",
    "tradeoff_ladder",
]
