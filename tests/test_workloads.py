"""Workload signature tables: SPEC, NAS, Rodinia."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.base import CpuWorkload, DramProfile
from repro.workloads.nas import nas_suite
from repro.workloads.rodinia import rodinia_suite
from repro.workloads.spec import SPEC_WORKLOADS, spec_suite, spec_workload


def test_spec_has_ten_programs():
    assert len(SPEC_WORKLOADS) == 10


def test_spec_contains_figure5_mix_members():
    for name in ("bwaves", "cactusADM", "dealII", "gromacs",
                 "leslie3d", "mcf", "milc", "namd"):
        assert name in SPEC_WORKLOADS


def test_spec_suite_sorted_by_swing():
    swings = [w.resonant_swing for w in spec_suite()]
    assert swings == sorted(swings)


def test_spec_swing_extremes():
    suite = spec_suite()
    assert suite[0].name == "mcf"     # gentlest program
    assert suite[-1].name == "milc"   # most aggressive


def test_spec_swings_in_calibrated_band():
    for workload in spec_suite():
        assert 0.25 <= workload.resonant_swing <= 0.60


def test_mcf_character():
    mcf = spec_workload("mcf").cpu
    assert mcf.ipc < 1.0            # memory-latency bound
    assert mcf.fp_ratio == 0.0      # integer code
    assert mcf.l2_miss_ratio > 0.1


def test_milc_character():
    milc = spec_workload("milc").cpu
    assert milc.fp_ratio > 0.5      # FP-vector heavy


def test_unknown_workload_rejected():
    with pytest.raises(WorkloadError):
        spec_workload("doom")


def test_nas_swings_below_virus_headroom():
    for workload in nas_suite():
        assert workload.resonant_swing <= 0.55


def test_rodinia_reporting_order():
    assert [w.name for w in rodinia_suite()] == ["backprop", "kmeans", "nw", "srad"]


def test_rodinia_all_have_dram_profiles():
    for workload in rodinia_suite():
        assert workload.dram is not None
        assert workload.dram.bandwidth_gbs > 0


def test_rodinia_nw_lowest_bandwidth_kmeans_highest():
    bw = {w.name: w.dram.bandwidth_gbs for w in rodinia_suite()}
    assert min(bw, key=bw.get) == "nw"
    assert max(bw, key=bw.get) == "kmeans"


def test_rodinia_kmeans_best_inherent_refresh():
    hot = {w.name: w.dram.hot_row_fraction for w in rodinia_suite()}
    assert max(hot, key=hot.get) == "kmeans"
    assert min(hot, key=hot.get) == "nw"


def test_workload_validation():
    with pytest.raises(WorkloadError):
        CpuWorkload("x", "s", resonant_swing=1.5, ipc=1.0, fp_ratio=0.0,
                    mem_ratio=0.0, branch_ratio=0.0, l2_miss_ratio=0.0)
    with pytest.raises(WorkloadError):
        CpuWorkload("x", "s", resonant_swing=0.5, ipc=0.0, fp_ratio=0.0,
                    mem_ratio=0.0, branch_ratio=0.0, l2_miss_ratio=0.0)
    with pytest.raises(WorkloadError):
        DramProfile(footprint_mb=0, hot_row_fraction=0.5,
                    data_entropy=0.5, bandwidth_gbs=1.0)


def test_predictor_features_shape():
    features = spec_workload("gcc").cpu.predictor_features()
    assert features.shape == (6,)
    assert features[0] == 1.0


def test_workload_name_passthrough():
    workload = spec_workload("lbm")
    assert workload.name == workload.cpu.name == "lbm"
    assert workload.resonant_swing == workload.cpu.resonant_swing
