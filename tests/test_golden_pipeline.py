"""Golden digest of the result pipeline's cloud CSV.

``run_pipeline(seed=9, benchmarks=2, repetitions=2)`` is pinned by the
sha256 of the CSV text of the rows the cloud store materialized,
recorded at ``jobs=1`` in ``tests/golden/``. The same digest must come
out of a pooled run and of a pooled run under a seeded fault plan:
rows are identical at any worker count and under any recoverable fault
schedule.
"""

import hashlib
import os

import pytest

from repro.core.faults import FaultSpec
from repro.experiments.common import RunOptions
from repro.experiments.pipeline import run_pipeline

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "pipeline_seed9_cloud_csv.sha256")


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
