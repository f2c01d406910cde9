"""Golden digests of every experiment's printed output.

For each :data:`repro.experiments.REGISTRY` id, the sha256 of the stdout
of ``python -m repro run NAME`` (and ``run NAME --fast``) at the default
seed is pinned in ``tests/golden/experiments_stdout.sha256``, with the
``[NAME: x.xs]`` timing line stripped. Figures print at the precision
they report, so the digests hold across the CI matrix.

6 of the 8 ids that take a fast budget print identical text at both
budgets because their figures saturate (fig6 prints swing 1.000 at 128
and at 782 GA evaluations); table1 and ablation-ga (whose random arm
prints its budget and swing) differ. fig8a, fig8b, stencil and
ablation-ecc take no budget. ``tests/test_golden_ga.py`` stays the exact pin
for the GA arms.

Recoverable injected faults must reproduce the clean digests: the
faulted cases below run under ``--faults`` and compare against the
clean fast digest of the same id.
"""

import contextlib
import hashlib
import io
import os
import re

import pytest

from repro.__main__ import main
from repro.experiments import REGISTRY

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "experiments_stdout.sha256")


def _golden():
    digests = {}
    with open(GOLDEN, encoding="utf-8") as handle:
        for line in handle:
            name, budget, digest = line.split()
            digests[name, budget] = digest
    return digests


DIGESTS = _golden()


def _stdout_digest(argv, name) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(argv) == 0
    text = re.sub(rf"^\[{name}: [0-9.]+s\]\n", "", buffer.getvalue(),
                  flags=re.MULTILINE)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_file_covers_the_registry():
    assert set(DIGESTS) == {(name, budget) for name in REGISTRY
                            for budget in ("fast", "full")}


@pytest.mark.parametrize("name", list(REGISTRY))
def test_fast_output_matches_golden_digest(name):
    assert _stdout_digest(["run", name, "--fast"], name) \
        == DIGESTS[name, "fast"]


@pytest.mark.slow
@pytest.mark.parametrize("name", list(REGISTRY))
def test_full_output_matches_golden_digest(name):
    assert _stdout_digest(["run", name], name) == DIGESTS[name, "full"]


@pytest.mark.parametrize("name,flags", [
    ("fig4", ["--jobs", "2", "--faults", "real=7", "--unit-timeout", "60"]),
    ("table1", ["--faults", "thermal=0"]),
], ids=["fig4-real-faults", "table1-thermal-faults"])
def test_faulted_fast_output_matches_clean_digest(name, flags):
    assert _stdout_digest(["run", name, "--fast"] + flags, name) \
        == DIGESTS[name, "fast"]
