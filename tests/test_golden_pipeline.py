"""Golden digest of the result pipeline's cloud CSV.

``run_pipeline(seed=9, benchmarks=2, repetitions=2)`` is pinned by the
sha256 of the CSV text of the rows the cloud store materialized,
recorded at ``jobs=1`` in ``tests/golden/``. The same digest must come
out of a pooled run and of a pooled run under a seeded fault plan:
rows are identical at any worker count and under any recoverable fault
schedule.

The printed summary of ``python -m repro pipeline`` -- shard, supervision,
transport and injected-fault counts -- is pinned too, by the sha256 of
its stdout in ``tests/golden/pipeline_stdout.sha256``: one digest per
distinct output, clean (the same at ``--jobs 1`` and ``--jobs 2``),
faulted, over the serial link (with or without a checkpoint), a
checkpointed run with its fully resumed rerun, and a run that
quarantines a shard with its rerun.
"""

import contextlib
import hashlib
import io
import os

import pytest

from repro.__main__ import main
from repro.core.faults import FaultSpec
from repro.experiments.common import RunOptions
from repro.experiments.pipeline import run_pipeline

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "pipeline_seed9_cloud_csv.sha256")
STDOUT_GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                             "pipeline_stdout.sha256")


def _golden_digest() -> str:
    with open(GOLDEN, encoding="utf-8") as handle:
        return handle.read().strip()


def _cloud_csv_digest(**kwargs) -> str:
    result = run_pipeline(seed=9, benchmarks=2, repetitions=2, **kwargs)
    assert result.exactly_once
    return hashlib.sha256(result.store.to_csv_text().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("kwargs", [
    {"jobs": 1},
    {"jobs": 2},
    {"jobs": 2, "options": RunOptions(faults=FaultSpec(random=77, real=7))},
], ids=["jobs1", "jobs2", "jobs2-faulted"])
def test_pipeline_cloud_csv_matches_golden_digest(kwargs):
    assert _cloud_csv_digest(**kwargs) == _golden_digest()


def _stdout_goldens():
    with open(STDOUT_GOLDEN, encoding="utf-8") as handle:
        return dict(line.split() for line in handle)


STDOUT_DIGESTS = _stdout_goldens()
FAULTS = ["--faults", "random=77,real=7", "--unit-timeout", "60"]
SERIAL = ["--jobs", "2", "--transport", "serial", "--faults", "random=11"]


def _stdout(argv) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(["pipeline", "--fast"] + argv) == 0
    return buffer.getvalue()


def _stdout_digest(argv) -> str:
    return hashlib.sha256(_stdout(argv).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("golden,argv", [
    ("fast", ["--jobs", "1"]),
    ("fast", ["--jobs", "2"]),
    ("faulted-jobs1", ["--jobs", "1"] + FAULTS),
    ("faulted-jobs2", ["--jobs", "2"] + FAULTS),
    ("serial-jobs2", SERIAL),
    # The benchmark's configuration: a checkpoint changes no printed line.
    ("serial-jobs2", SERIAL + ["--resume", "{dir}"]),
], ids=["jobs1", "jobs2", "jobs1-faulted", "jobs2-faulted", "jobs2-serial",
        "jobs2-serial-resume"])
def test_pipeline_stdout_matches_golden_digest(golden, argv, tmp_path):
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
    assert _stdout_digest(argv) == STDOUT_DIGESTS[golden]


def test_resumed_serial_pipeline_delivers_the_same_cloud_csv(tmp_path):
    """A fully resumed rerun frames the rows it reloads from the
    checkpoint exactly as the first run framed the rows it built."""
    argv = SERIAL + ["--resume", str(tmp_path / "resume")]
    first = _stdout(argv + ["--out", str(tmp_path / "first.csv")])
    rerun = _stdout(argv + ["--out", str(tmp_path / "rerun.csv")])
    assert "shards: 0 executed" in rerun

    def transport(stdout):
        return [line for line in stdout.splitlines()
                if line.startswith("transport ")]
    assert transport(rerun) == transport(first)
    assert (tmp_path / "rerun.csv").read_bytes() == \
        (tmp_path / "first.csv").read_bytes()


def test_resumed_pipeline_stdout_matches_golden_digests(tmp_path):
    argv = ["--jobs", "2", "--faults", "random=11", "--resume", str(tmp_path)]
    assert _stdout_digest(argv) == STDOUT_DIGESTS["resume-first"]
    assert _stdout_digest(argv) == STDOUT_DIGESTS["resume-rerun"]


def test_quarantined_pipeline_stdout_matches_golden_digests(tmp_path):
    """With no retries a crashed shard is quarantined and checkpointed
    as such; the rerun resumes the finished shard and re-reports the
    quarantine without executing anything."""
    argv = ["--faults", "real=3", "--max-retries", "0",
            "--resume", str(tmp_path)]
    assert _stdout_digest(argv) == STDOUT_DIGESTS["quarantine-first"]
    assert _stdout_digest(argv) == STDOUT_DIGESTS["quarantine-rerun"]
