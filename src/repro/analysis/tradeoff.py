"""Power/performance tradeoff ladder (the Figure 5 analysis).

The scenario: the 8-benchmark mix occupies all 8 cores; PMDs share one
voltage rail but clock independently. Downclocking the k weakest PMDs to
1.2 GHz removes them from the rail's voltage constraint at 2.4 GHz --
the rail then only has to satisfy (a) the remaining full-speed PMDs at
2.4 GHz and (b) the downclocked PMDs at their much lower 1.2 GHz Vmin.
Each additional downclocked PMD costs 12.5 % throughput (2 of 16
core-GHz) and unlocks a lower rail voltage.

The final rung -- all four PMDs at 1.2 GHz -- drops the rail to the
1.2 GHz critical voltage itself (the 760 mV point of the paper's
figure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.soc.chip import Chip
from repro.soc.corners import NOMINAL_PMD_MV
from repro.soc.power import CorePowerModel, multicore_relative_power
from repro.soc.topology import NUM_PMDS, CORES_PER_PMD, NOMINAL_FREQ_GHZ, REDUCED_FREQ_GHZ
from repro.workloads.mixes import MultiprogramMix


@dataclass(frozen=True)
class TradeoffPoint:
    """One rung of the ladder."""

    slow_pmds: int
    performance_fraction: float
    rail_mv: float
    relative_power: float

    @property
    def power_savings_pct(self) -> float:
        return (1.0 - self.relative_power) * 100.0


def _snap_up(value: float, step: float) -> float:
    return math.ceil(value / step - 1e-9) * step


def tradeoff_ladder(chip: Chip, mix: MultiprogramMix,
                    power_model: CorePowerModel = None,
                    step_mv: float = 5.0,
                    safety_margin_mv: float = 0.0) -> List[TradeoffPoint]:
    """Compute the full ladder: 0..4 downclocked PMDs.

    ``power_model`` defaults to a pure-dynamic model (matching the
    figure's labels, which follow f*V^2 exactly); pass a corner-aware
    model to include leakage.
    """
    if power_model is None:
        power_model = CorePowerModel(
            nominal_mv=NOMINAL_PMD_MV, nominal_ghz=NOMINAL_FREQ_GHZ,
            leakage_fraction=0.0, leakage_v0_mv=50.0, nominal_watts=1.0,
        )
    per_pmd_vmin = mix.per_pmd_vmin_mv(chip, NOMINAL_FREQ_GHZ)
    # Weakest-first order: the paper downclocks PMDs 0 and 1 first.
    pmd_order = sorted(per_pmd_vmin, key=lambda p: per_pmd_vmin[p], reverse=True)
    ladder: List[TradeoffPoint] = []
    for slow_count in range(0, NUM_PMDS + 1):
        slow_set = set(pmd_order[:slow_count])
        fast_constraints = [per_pmd_vmin[p] for p in per_pmd_vmin if p not in slow_set]
        slow_constraints = [
            mix.per_pmd_vmin_mv(chip, REDUCED_FREQ_GHZ)[p] for p in slow_set
        ]
        vmin = max(fast_constraints + slow_constraints)
        rail = min(_snap_up(vmin + safety_margin_mv, step_mv), NOMINAL_PMD_MV)
        per_core_freqs = []
        for pmd in range(NUM_PMDS):
            freq = REDUCED_FREQ_GHZ if pmd in slow_set else NOMINAL_FREQ_GHZ
            per_core_freqs.extend([freq] * CORES_PER_PMD)
        perf = sum(per_core_freqs) / (NUM_PMDS * CORES_PER_PMD * NOMINAL_FREQ_GHZ)
        power = multicore_relative_power(per_core_freqs, rail, power_model)
        ladder.append(TradeoffPoint(
            slow_pmds=slow_count,
            performance_fraction=perf,
            rail_mv=rail,
            relative_power=power,
        ))
    return ladder
