"""Platform factory: a fully-assembled simulated X-Gene2 board.

``build_platform`` wires together one chip (at a chosen process corner),
the voltage regulators, the SLIMpro, and the
per-domain power models with the wattage split calibrated to the paper's
Figure 9 (31.1 W total under the Jammer workload at nominal settings).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.rand import SeedLike
from repro.soc.chip import Chip
from repro.soc.corners import (
    CORNER_PARAMS,
    NOMINAL_PMD_MV,
    NOMINAL_SOC_MV,
    ProcessCorner,
)
from repro.soc.power import CorePowerModel
from repro.soc.slimpro import SLIMpro
from repro.soc.topology import NOMINAL_FREQ_GHZ

#: Nominal-domain wattage split under a fully-loaded server (the Jammer
#: experiment's 31.1 W). "OTHER" covers fans, board losses, SLIMpro and
#: the NIC -- everything the undervolting knobs cannot touch.
DEFAULT_DOMAIN_WATTS: Dict[str, float] = {
    "PMD": 15.5,
    "SoC": 5.0,
    "DRAM": 7.6,
    "OTHER": 3.0,
}


@dataclass
class XGene2Platform:
    """One assembled board: chip + control plane + power models."""

    chip: Chip
    slimpro: SLIMpro
    pmd_power: CorePowerModel
    soc_power: CorePowerModel
    other_watts: float
    dram_nominal_watts: float


def build_platform(corner: ProcessCorner = ProcessCorner.TTT,
                   seed: SeedLike = None,
                   domain_watts: Optional[Dict[str, float]] = None,
                   serial: Optional[str] = None) -> XGene2Platform:
    """Assemble a booted platform around a chip of the given corner."""
    watts = dict(DEFAULT_DOMAIN_WATTS)
    if domain_watts:
        watts.update(domain_watts)
    chip = Chip(corner, seed=seed, serial=serial)
    params = CORNER_PARAMS[corner]
    slimpro = SLIMpro()
    slimpro.boot()

    pmd_power = CorePowerModel.for_corner(
        params, nominal_mv=NOMINAL_PMD_MV, nominal_ghz=NOMINAL_FREQ_GHZ,
        nominal_watts=watts["PMD"],
    )
    # The uncore runs at a fixed clock and is dominated by switching
    # power; give it a small leakage share regardless of corner.
    soc_power = CorePowerModel(
        nominal_mv=NOMINAL_SOC_MV, nominal_ghz=NOMINAL_FREQ_GHZ,
        leakage_fraction=0.02, leakage_v0_mv=params.leakage_v0_mv,
        nominal_watts=watts["SoC"],
    )
    return XGene2Platform(
        chip=chip,
        slimpro=slimpro,
        pmd_power=pmd_power,
        soc_power=soc_power,
        other_watts=watts["OTHER"],
        dram_nominal_watts=watts["DRAM"],
    )


def build_reference_chips(seed: SeedLike = None) -> Dict[ProcessCorner, Chip]:
    """The paper's three socketed parts.

    Reference parts carry zero manufacturing jitter: their per-core
    offsets are exactly the calibrated corner values, so the headline
    experiments reproduce the paper's figures deterministically.
    """
    return {
        corner: Chip(corner, seed=seed, serial=f"{corner.value}-ref",
                     jitter_sigma_mv=0.0)
        for corner in ProcessCorner
    }
