"""Smoke-run every example script end to end.

Each must exit cleanly and print its headline lines. The function
reachability guard (``test_function_reachability.py``) counts what the
examples call as reached, so they must keep running.
"""

import pathlib
import subprocess
import sys

import pytest
#: Heavy module: deselected from the smoke tier (``pytest -m "not slow"``).
pytestmark = pytest.mark.slow


EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart_smoke():
    out = run_example("quickstart.py")
    assert "selected safe operating point" in out
    assert "PMD rail 930 mV" in out


def test_jammer_smoke():
    out = run_example("jammer_energy_savings.py")
    assert "QoS met" in out
    assert "total: 31.1 W" in out


def test_chip_binning_smoke():
    out = run_example("chip_binning.py")
    assert "TTT: 935-935 mV" in out
    assert "slow corner should not be undervolted" in out


def test_dram_retention_study_smoke():
    out = run_example("dram_retention_study.py")
    assert "SLIMpro ECC log: 22 CE, 0 UE" in out
    assert "random DPBench BER: 4.42e-08 (the worst pattern)" in out


def test_virus_evolution_smoke():
    out = run_example("virus_evolution.py")
    assert "em-virus   Vmin   920 mV" in out
    assert "virus exceeds the worst NAS workload by 40 mV" in out
