"""X-Gene2 Server-on-Chip platform model.

This package models the hardware substrate of the paper's testbed
(Section II): four processor modules (PMDs) of two ARMv8 cores each, the
cache hierarchy, the memory-controller bridges, the SLIMpro management
processor, the voltage domains with their regulators, and the analytic
power model used for savings projections.

The physical chip-to-chip heterogeneity the paper measures (three sigma
chips: TTT/TFF/TSS) is captured by :mod:`repro.soc.corners` and
:mod:`repro.soc.chip`, whose parameters are calibrated to the paper's
reported Vmin figures -- see DESIGN.md section 2 for the substitution
rationale.
"""

from repro.soc.corners import ProcessCorner, CORNER_PARAMS, CornerParams
from repro.soc.topology import (
    CACHE_LINE_BYTES,
    CORES_PER_PMD,
    L1D_BYTES,
    L1I_BYTES,
    L2_BYTES_PER_PMD,
    L3_BYTES,
    NUM_CORES,
    NUM_MCBS,
    NUM_PMDS,
    CoreId,
)
from repro.soc.chip import Chip, CoreVminModel
from repro.soc.domains import VoltageRegulator, DomainName
from repro.soc.slimpro import SLIMpro, EccReport
from repro.soc.power import CorePowerModel
from repro.soc.xgene2 import XGene2Platform, build_platform, build_reference_chips

__all__ = [
    "CACHE_LINE_BYTES",
    "CORES_PER_PMD",
    "CORNER_PARAMS",
    "Chip",
    "CoreId",
    "CorePowerModel",
    "CoreVminModel",
    "CornerParams",
    "DomainName",
    "EccReport",
    "L1D_BYTES",
    "L1I_BYTES",
    "L2_BYTES_PER_PMD",
    "L3_BYTES",
    "NUM_CORES",
    "NUM_MCBS",
    "NUM_PMDS",
    "ProcessCorner",
    "SLIMpro",
    "VoltageRegulator",
    "XGene2Platform",
    "build_platform",
    "build_reference_chips",
]
