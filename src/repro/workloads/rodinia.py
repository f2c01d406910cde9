"""Rodinia HPC workload models (Figure 8's DRAM characterization).

The paper runs four memory-intensive Rodinia applications -- backprop,
kmeans, nw (Needleman-Wunsch) and srad -- under the 35x relaxed refresh
period and reports (a) their BER spread (up to 2.5x between workloads,
all below the random DPBench) and (b) the DRAM power savings each
enables (27.3 % for nw down to 9.4 % for kmeans).

DRAM profiles are calibrated to land both results: the BER comes from
each workload's data entropy and hot-row (inherent-refresh) coverage,
the power saving from its sustained bandwidth.
"""

from __future__ import annotations

from typing import Dict, List

from repro.workloads.base import CpuWorkload, DramProfile, Workload

_SUITE = "rodinia"

RODINIA_WORKLOADS: Dict[str, Workload] = {
    # Neural-net training: moderate bandwidth, weight matrices re-swept
    # every epoch (decent inherent refresh), mixed-entropy float data.
    "backprop": Workload(
        CpuWorkload("backprop", _SUITE, resonant_swing=0.41, ipc=1.30,
                    fp_ratio=0.40, mem_ratio=0.34, branch_ratio=0.06,
                    l2_miss_ratio=0.12, sdc_bias=0.35),
        DramProfile(footprint_mb=2200, hot_row_fraction=0.64,
                    data_entropy=0.75, bandwidth_gbs=16.0),
    ),
    # Iterative clustering: the whole point set is streamed every
    # iteration -- near-peak bandwidth and the best inherent refresh,
    # with low-entropy centroid-dominated data.
    "kmeans": Workload(
        CpuWorkload("kmeans", _SUITE, resonant_swing=0.38, ipc=1.10,
                    fp_ratio=0.30, mem_ratio=0.40, branch_ratio=0.08,
                    l2_miss_ratio=0.17, sdc_bias=0.30),
        DramProfile(footprint_mb=3100, hot_row_fraction=0.75,
                    data_entropy=0.55, bandwidth_gbs=33.0),
    ),
    # Sequence alignment: a wavefront sweeps a large score matrix once;
    # little re-access (poor inherent refresh), high-entropy scores,
    # low sustained bandwidth -- the highest BER and the biggest power
    # saving of the four.
    "nw": Workload(
        CpuWorkload("nw", _SUITE, resonant_swing=0.36, ipc=0.90,
                    fp_ratio=0.05, mem_ratio=0.44, branch_ratio=0.12,
                    l2_miss_ratio=0.15, sdc_bias=0.20),
        DramProfile(footprint_mb=2048, hot_row_fraction=0.50,
                    data_entropy=0.90, bandwidth_gbs=3.4),
    ),
    # Speckle-reducing anisotropic diffusion: stencil over an image,
    # neighbours re-touched each sweep, moderate everything.
    "srad": Workload(
        CpuWorkload("srad", _SUITE, resonant_swing=0.43, ipc=1.40,
                    fp_ratio=0.42, mem_ratio=0.33, branch_ratio=0.05,
                    l2_miss_ratio=0.10, sdc_bias=0.35),
        DramProfile(footprint_mb=1600, hot_row_fraction=0.68,
                    data_entropy=0.80, bandwidth_gbs=10.0),
    ),
}


def rodinia_suite() -> List[Workload]:
    """The four applications in the paper's reporting order."""
    return [RODINIA_WORKLOADS[name] for name in ("backprop", "kmeans", "nw", "srad")]
