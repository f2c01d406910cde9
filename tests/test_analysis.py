"""Tradeoff ladder and server power accounting."""

import pytest

from repro.analysis.server_power import server_power_report
from repro.analysis.tradeoff import tradeoff_ladder
from repro.core.safepoints import SafeOperatingPoint
from repro.errors import ConfigurationError
from repro.units import NOMINAL_REFRESH_S, RELAXED_REFRESH_S
from repro.workloads.jammer import JAMMER_WORKLOAD
from repro.workloads.mixes import figure5_mix
from repro.workloads.spec import spec_workload


# ----------------------------------------------------------------------
# Figure 5 ladder
# ----------------------------------------------------------------------
def test_ladder_reproduces_paper_rungs(ttt_chip):
    ladder = tradeoff_ladder(ttt_chip, figure5_mix())
    rails = [p.rail_mv for p in ladder]
    assert rails == [915.0, 900.0, 885.0, 875.0, 760.0]
    perfs = [p.performance_fraction for p in ladder]
    for measured, target in zip(perfs, (1.0, 0.875, 0.75, 0.625, 0.5)):
        assert measured == pytest.approx(target)


def test_ladder_power_percentages(ttt_chip):
    ladder = tradeoff_ladder(ttt_chip, figure5_mix())
    powers = [p.relative_power * 100 for p in ladder]
    for measured, target in zip(powers, (87.2, 73.8, 61.2, 49.8)):
        assert measured == pytest.approx(target, abs=0.2)


def test_ladder_headline_savings(ttt_chip):
    ladder = tradeoff_ladder(ttt_chip, figure5_mix())
    assert ladder[0].power_savings_pct == pytest.approx(12.8, abs=0.2)
    assert ladder[2].power_savings_pct == pytest.approx(38.8, abs=0.2)


def test_ladder_monotone(ttt_chip):
    ladder = tradeoff_ladder(ttt_chip, figure5_mix())
    rails = [p.rail_mv for p in ladder]
    powers = [p.relative_power for p in ladder]
    assert rails == sorted(rails, reverse=True)
    assert powers == sorted(powers, reverse=True)


# ----------------------------------------------------------------------
# Figure 9 server power
# ----------------------------------------------------------------------
def paper_point() -> SafeOperatingPoint:
    return SafeOperatingPoint(pmd_mv=930.0, soc_mv=920.0,
                              trefp_s=RELAXED_REFRESH_S, safety_margin_mv=10.0)


def test_server_power_totals(ttt_platform):
    report = server_power_report(ttt_platform, JAMMER_WORKLOAD, paper_point())
    assert report.total_nominal_w == pytest.approx(31.1, abs=0.2)
    assert report.total_scaled_w == pytest.approx(24.8, abs=0.5)
    assert report.total_savings_pct == pytest.approx(20.2, abs=1.0)


def test_server_power_domain_savings(ttt_platform):
    report = server_power_report(ttt_platform, JAMMER_WORKLOAD, paper_point())
    assert report.domain_savings_pct("PMD") == pytest.approx(20.3, abs=1.0)
    assert report.domain_savings_pct("SoC") == pytest.approx(6.9, abs=1.0)
    assert report.domain_savings_pct("DRAM") == pytest.approx(33.3, abs=1.0)
    assert report.domain_savings_pct("OTHER") == 0.0


def test_server_power_nominal_point_is_noop(ttt_platform):
    nominal = SafeOperatingPoint(pmd_mv=980.0, soc_mv=950.0,
                                 trefp_s=NOMINAL_REFRESH_S,
                                 safety_margin_mv=0.0)
    report = server_power_report(ttt_platform, JAMMER_WORKLOAD, nominal)
    assert report.total_savings_pct == pytest.approx(0.0, abs=1e-9)


def test_server_power_requires_dram_profile(ttt_platform):
    from repro.workloads.base import Workload
    cpu_only = Workload(spec_workload("mcf").cpu, None)
    with pytest.raises(ConfigurationError):
        server_power_report(ttt_platform, cpu_only, paper_point())


def test_unknown_domain_rejected(ttt_platform):
    report = server_power_report(ttt_platform, JAMMER_WORKLOAD, paper_point())
    with pytest.raises(ConfigurationError):
        report.domain_savings_pct("GPU")
