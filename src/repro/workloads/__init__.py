"""Behavioural workload models.

The paper's characterization consumes only each workload's *signatures*
-- supply-current activity for the CPU side, and footprint / access
pattern / stored-data statistics for the DRAM side -- never the
workloads' computed outputs. This package models the benchmark suites
the paper runs at that signature level:

- :mod:`repro.workloads.spec` -- the 10 SPEC CPU2006 programs of Fig. 4;
- :mod:`repro.workloads.nas` -- the NAS parallel benchmarks of Fig. 6;
- :mod:`repro.workloads.rodinia` -- the four HPC memory-intensive
  applications of Fig. 8 (backprop, kmeans, nw, srad);
- :mod:`repro.workloads.stencil` -- stencil kernels with access-pattern
  scheduling (the IOLTS'17 study the paper cites as reference [12]);
- :mod:`repro.workloads.jammer` -- the end-to-end multi-instance DoS
  jammer detector of Fig. 9, with its QoS constraint;
- :mod:`repro.workloads.mixes` -- multiprogram mixes (the 8-benchmark
  workload of Fig. 5).

Calibrated signature values (each workload's ``resonant_swing``,
``hot_row_fraction`` etc.) are derived from the paper's measured
figures; see DESIGN.md section 2 for the substitution rationale.
"""

from repro.workloads.base import CpuWorkload, DramProfile, Workload
from repro.workloads.spec import SPEC_WORKLOADS, spec_workload, spec_suite
from repro.workloads.nas import NAS_WORKLOADS, nas_suite, nas_workload
from repro.workloads.rodinia import RODINIA_WORKLOADS, rodinia_suite, rodinia_workload
from repro.workloads.mixes import MultiprogramMix, figure5_mix
from repro.workloads.stencil import StencilWorkload, StencilScheduler
from repro.workloads.jammer import JammerDetector, JammerConfig, JammerRunReport

__all__ = [
    "CpuWorkload",
    "DramProfile",
    "JammerConfig",
    "JammerDetector",
    "JammerRunReport",
    "MultiprogramMix",
    "NAS_WORKLOADS",
    "RODINIA_WORKLOADS",
    "SPEC_WORKLOADS",
    "StencilScheduler",
    "StencilWorkload",
    "Workload",
    "figure5_mix",
    "nas_suite",
    "nas_workload",
    "rodinia_suite",
    "rodinia_workload",
    "spec_suite",
    "spec_workload",
]
