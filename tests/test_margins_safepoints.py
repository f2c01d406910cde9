"""Guardband reports and safe-operating-point selection."""

import pytest

from repro.core.margins import guardband_report
from repro.core.safepoints import SafeOperatingPoint, select_safe_points
from repro.core.vmin import VminResult
from repro.errors import CampaignError, ConfigurationError
from repro.soc.topology import CoreId
from repro.units import NOMINAL_REFRESH_S, RELAXED_REFRESH_S


def vr(workload: str, vmin: float) -> VminResult:
    return VminResult(workload=workload, cores=(CoreId(0, 0),), freq_ghz=2.4,
                      safe_vmin_mv=vmin, first_unsafe_mv=vmin - 5.0,
                      records=(), campaign_wall_time_s=0.0)


@pytest.fixture()
def report():
    return guardband_report(
        "TTT-ref", "TTT",
        [vr("mcf", 895.0), vr("milc", 925.0)],
        virus_result=vr("em-virus", 920.0),
    )


def test_report_ranges(report):
    assert report.max_vmin_mv == 925.0


def test_report_virus_margin(report):
    assert report.virus_margin_mv == pytest.approx(60.0)


def test_report_without_virus_falls_back():
    rep = guardband_report("x", "TTT", [vr("mcf", 895.0)])
    assert rep.virus_margin_mv is None


def test_empty_report_rejected():
    with pytest.raises(CampaignError):
        guardband_report("x", "TTT", [])


def test_safe_point_reproduces_paper_930_920(report):
    """Virus at 920 + 10 mV margin and milc at 925 + 5 mV -> 930/920."""
    point = select_safe_points(report, dram_all_corrected=True)
    assert point.pmd_mv == 930.0
    assert point.soc_mv == 920.0
    assert point.trefp_s == RELAXED_REFRESH_S


def test_safe_point_refresh_gated_by_ecc(report):
    point = select_safe_points(report, dram_all_corrected=False)
    assert point.trefp_s == NOMINAL_REFRESH_S


def test_safe_point_never_exceeds_nominal():
    rep = guardband_report("x", "TSS", [vr("mcf", 900.0)],
                           virus_result=vr("em-virus", 975.0))
    point = select_safe_points(rep, dram_all_corrected=True)
    assert point.pmd_mv <= 980.0
    # TSS: effectively no margin -> the point stays at/near nominal.
    assert point.pmd_mv >= 975.0


def test_safe_point_workload_floor_dominates_when_virus_low():
    rep = guardband_report("x", "TTT", [vr("hog", 940.0)],
                           virus_result=vr("em-virus", 920.0))
    point = select_safe_points(rep, dram_all_corrected=True)
    assert point.pmd_mv == 945.0  # 940 + 5 workload margin


def test_safe_point_properties():
    point = SafeOperatingPoint(pmd_mv=930.0, soc_mv=920.0,
                               trefp_s=RELAXED_REFRESH_S, safety_margin_mv=10.0)
    assert point.pmd_undervolt_mv == 50.0
    assert point.refresh_relaxation == pytest.approx(35.67, abs=0.01)


def test_invalid_margins_rejected(report):
    with pytest.raises(ConfigurationError):
        select_safe_points(report, True, safety_margin_mv=-1.0)
    with pytest.raises(ConfigurationError):
        select_safe_points(report, True, step_mv=0.0)
    with pytest.raises(ConfigurationError):
        SafeOperatingPoint(pmd_mv=0.0, soc_mv=920.0, trefp_s=1.0,
                           safety_margin_mv=0.0)
