"""Smoke-run the cheap example scripts end to end.

Only the fast examples run here (the full set is exercised manually /
in docs); each must exit cleanly and print its headline lines.
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
