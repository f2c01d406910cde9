"""NAS Parallel Benchmark workload models (Figure 6 comparators).

The paper contrasts the EM virus's Vmin against "conventional workloads
like NAS". Swings are calibrated to sit well below the virus's resonant
swing, producing the clear gap of Figure 6.
"""

from __future__ import annotations

from typing import Dict, List

from repro.workloads.base import CpuWorkload, DramProfile, Workload

_SUITE = "nas"

NAS_WORKLOADS: Dict[str, Workload] = {
    "is": Workload(
        CpuWorkload("is", _SUITE, resonant_swing=0.30, ipc=0.80,
                    fp_ratio=0.00, mem_ratio=0.42, branch_ratio=0.14,
                    l2_miss_ratio=0.15, sdc_bias=0.15),
        DramProfile(footprint_mb=1024, hot_row_fraction=0.50,
                    data_entropy=0.88, bandwidth_gbs=10.0),
    ),
    "cg": Workload(
        CpuWorkload("cg", _SUITE, resonant_swing=0.34, ipc=0.95,
                    fp_ratio=0.30, mem_ratio=0.40, branch_ratio=0.06,
                    l2_miss_ratio=0.16, sdc_bias=0.30),
        DramProfile(footprint_mb=900, hot_row_fraction=0.45,
                    data_entropy=0.80, bandwidth_gbs=9.0),
    ),
    "ep": Workload(
        CpuWorkload("ep", _SUITE, resonant_swing=0.37, ipc=1.90,
                    fp_ratio=0.42, mem_ratio=0.05, branch_ratio=0.09,
                    l2_miss_ratio=0.00, sdc_bias=0.45),
        DramProfile(footprint_mb=16, hot_row_fraction=0.98,
                    data_entropy=0.85, bandwidth_gbs=0.2),
    ),
    "mg": Workload(
        CpuWorkload("mg", _SUITE, resonant_swing=0.42, ipc=1.35,
                    fp_ratio=0.40, mem_ratio=0.32, branch_ratio=0.05,
                    l2_miss_ratio=0.11, sdc_bias=0.35),
        DramProfile(footprint_mb=3400, hot_row_fraction=0.40,
                    data_entropy=0.82, bandwidth_gbs=11.0),
    ),
    "lu": Workload(
        CpuWorkload("lu", _SUITE, resonant_swing=0.44, ipc=1.50,
                    fp_ratio=0.44, mem_ratio=0.28, branch_ratio=0.06,
                    l2_miss_ratio=0.07, sdc_bias=0.35),
        DramProfile(footprint_mb=700, hot_row_fraction=0.60,
                    data_entropy=0.81, bandwidth_gbs=6.0),
    ),
    "bt": Workload(
        CpuWorkload("bt", _SUITE, resonant_swing=0.45, ipc=1.55,
                    fp_ratio=0.46, mem_ratio=0.27, branch_ratio=0.05,
                    l2_miss_ratio=0.06, sdc_bias=0.35),
        DramProfile(footprint_mb=1200, hot_row_fraction=0.55,
                    data_entropy=0.83, bandwidth_gbs=7.0),
    ),
    "sp": Workload(
        CpuWorkload("sp", _SUITE, resonant_swing=0.48, ipc=1.45,
                    fp_ratio=0.47, mem_ratio=0.30, branch_ratio=0.04,
                    l2_miss_ratio=0.09, sdc_bias=0.35),
        DramProfile(footprint_mb=1100, hot_row_fraction=0.50,
                    data_entropy=0.84, bandwidth_gbs=9.5),
    ),
    "ft": Workload(
        CpuWorkload("ft", _SUITE, resonant_swing=0.52, ipc=1.60,
                    fp_ratio=0.50, mem_ratio=0.29, branch_ratio=0.03,
                    l2_miss_ratio=0.12, sdc_bias=0.40),
        DramProfile(footprint_mb=5200, hot_row_fraction=0.35,
                    data_entropy=0.87, bandwidth_gbs=13.0),
    ),
}


def nas_suite() -> List[Workload]:
    """All NAS kernels in ascending-swing order."""
    return sorted(NAS_WORKLOADS.values(), key=lambda w: w.resonant_swing)
