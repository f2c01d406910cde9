"""Integration: the CPU-side experiment drivers (Figures 4-7).

These run the full pipeline (campaigns + searches + GA) at reduced but
still-converged settings and assert the paper's qualitative and
quantitative shape.
"""

import pytest

from repro.experiments.fig4_spec_vmin import PAPER_RANGES_MV, run_figure4
from repro.experiments.fig5_tradeoff import run_figure5
from repro.experiments.fig6_virus_vs_nas import run_figure6
from repro.experiments.fig7_interchip import run_figure7

SEED = 1


@pytest.fixture(scope="module")
def fig4():
    return run_figure4(seed=SEED, repetitions=5)


@pytest.fixture(scope="module")
def fig5():
    return run_figure5(seed=SEED, repetitions=5)


@pytest.fixture(scope="module")
def fig6():
    return run_figure6(seed=SEED, repetitions=5, generations=8, population=16)


@pytest.fixture(scope="module")
def fig7():
    return run_figure7(seed=SEED, repetitions=5, generations=8, population=16)


# ----------------------------------------------------------------------
# Figure 4
# ----------------------------------------------------------------------
def test_fig4_covers_all_programs_and_chips(fig4):
    assert set(fig4.vmin_mv) == {"TTT", "TFF", "TSS"}
    for corner in fig4.vmin_mv.values():
        assert len(corner) == 10


def test_fig4_ranges_match_paper(fig4):
    for corner, (lo, hi) in PAPER_RANGES_MV.items():
        measured_lo, measured_hi = fig4.measured_range_mv(corner)
        assert measured_lo == pytest.approx(lo, abs=5.0), corner
        assert measured_hi == pytest.approx(hi, abs=5.0), corner


def test_fig4_guaranteed_power_reductions(fig4):
    assert fig4.guaranteed_power_reduction_pct("TTT") == pytest.approx(18.4, abs=1.0)
    assert fig4.guaranteed_power_reduction_pct("TSS") == pytest.approx(15.7, abs=1.0)


def test_fig4_workload_trends_consistent(fig4):
    """'Workload-to-workload variation follows similar trends'."""
    assert fig4.ordering_consistent_across_chips()


def test_fig4_format_renders(fig4):
    text = fig4.format()
    assert "mcf" in text and "TSS" in text


# ----------------------------------------------------------------------
# Figure 5
# ----------------------------------------------------------------------
def test_fig5_ladder_voltages(fig5):
    rails = [v for _, _, v, _ in fig5.rows()]
    assert rails == [915.0, 900.0, 885.0, 875.0, 760.0]


def test_fig5_headline_savings(fig5):
    assert fig5.full_perf_savings_pct == pytest.approx(12.8, abs=0.3)
    assert fig5.best_energy_savings_pct == pytest.approx(38.8, abs=0.3)


def test_fig5_measured_mix_vmin(fig5):
    assert fig5.measured_mix_vmin_mv == 915.0


def test_fig5_predictor_safe(fig5):
    assert fig5.predictor_is_safe
    report = fig5.predictor_report
    assert report.max_underprediction_mv <= report.conservative_bias_mv + 1e-9


# ----------------------------------------------------------------------
# Figure 6
# ----------------------------------------------------------------------
def test_fig6_virus_tops_every_nas_workload(fig6):
    assert fig6.virus_is_highest
    assert fig6.gap_mv >= 30.0  # a clear gap, as in the paper's figure


def test_fig6_virus_vmin_band(fig6):
    assert fig6.virus_vmin_mv == pytest.approx(920.0, abs=5.0)


def test_fig6_nas_vmin_band(fig6):
    for name, vmin in fig6.nas_vmin_mv.items():
        assert 855.0 <= vmin <= 890.0, name


# ----------------------------------------------------------------------
# Figure 7
# ----------------------------------------------------------------------
def test_fig7_margin_ordering(fig7):
    assert fig7.ordering_matches_paper


def test_fig7_ttt_margin(fig7):
    assert fig7.margin_mv("TTT") == pytest.approx(60.0, abs=5.0)


def test_fig7_tff_margin(fig7):
    assert fig7.margin_mv("TFF") == pytest.approx(20.0, abs=5.0)


def test_fig7_tss_margin_negligible(fig7):
    assert fig7.tss_margin_negligible
