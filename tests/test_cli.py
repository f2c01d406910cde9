"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main
#: Heavy module: deselected from the smoke tier (``pytest -m "not slow"``).
pytestmark = pytest.mark.slow



def test_list_prints_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    for name in ("fig4", "fig5", "fig6", "fig7", "table1",
                 "fig8a", "fig8b", "fig9", "stencil"):
        assert name in out


def test_run_unknown_experiment(capsys):
    assert main(["run", "fig99"]) == 2
    err = capsys.readouterr().err
    assert "unknown" in err


def test_run_rejects_bad_supervision_flags(capsys):
    assert main(["run", "fig4", "--max-retries", "-1"]) == 2
    assert "--max-retries" in capsys.readouterr().err
    assert main(["run", "fig4", "--unit-timeout", "0"]) == 2
    assert "--unit-timeout" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["run", "fig4"], ["pipeline"], ["report"]],
                         ids=["run", "pipeline", "report"])
def test_negative_seed_is_a_usage_error(argv, capsys):
    assert main(argv + ["--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["pipeline", "--fast", "--faults", "thermal=3"],
    ["run", "fig5", "--fast", "--faults", "real=3"],
], ids=["pipeline-thermal", "fig5-takes-no-options"])
def test_faults_nothing_injects_are_a_usage_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("--faults:")
    assert captured.out == ""


def test_run_fast_fig4_real_faults(capsys):
    """A seeded real-fault schedule must not change the printed figure."""
    assert main(["run", "fig4", "--seed", "1", "--fast"]) == 0
    clean = capsys.readouterr().out.rsplit("[fig4:", 1)[0]
    assert main(["run", "fig4", "--seed", "1", "--fast", "--jobs", "2",
                 "--faults", "real=7", "--unit-timeout", "60"]) == 0
    faulted = capsys.readouterr().out.rsplit("[fig4:", 1)[0]
    assert faulted == clean


def test_run_fast_fig8a(capsys):
    assert main(["run", "fig8a", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "Figure 8a" in out
    assert "[fig8a:" in out


def test_run_thermal_faults_flag(capsys):
    """--faults thermal=N with a recoverable schedule leaves the printed
    table identical to the clean regulated run."""
    assert main(["run", "table1", "--seed", "1", "--fast"]) == 0
    clean = capsys.readouterr().out.rsplit("[table1:", 1)[0]
    assert main(["run", "table1", "--seed", "1", "--fast",
                 "--faults", "thermal=0"]) == 0
    faulted = capsys.readouterr().out.rsplit("[table1:", 1)[0]
    assert "Table I" in faulted
    assert faulted == clean
    assert main(["run", "fig8a", "--seed", "1",
                 "--faults", "thermal=0"]) == 0
    assert "Figure 8a" in capsys.readouterr().out


def test_run_fast_fig4(capsys):
    assert main(["run", "fig4", "--seed", "1", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "Figure 4" in out
    assert "TSS" in out


def test_run_fast_stencil(capsys):
    assert main(["run", "stencil", "--seed", "1", "--fast"]) == 0
    assert "Stencil" in capsys.readouterr().out


def test_run_fast_multiprocess(capsys):
    assert main(["run", "multiprocess", "--seed", "1", "--fast"]) == 0
    assert "multi-process" in capsys.readouterr().out


def test_report_fast(capsys):
    assert main(["report", "--seed", "1", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "REPRODUCTION REPORT" in out
    assert "ALL SHAPE CHECKS PASS" in out
