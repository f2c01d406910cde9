"""The benchmark's metrics: listed in ``BENCHMARK.json``, derived here.

``BENCHMARK.json`` at the repository root is the one list of metric
names, units and directions; ``run.py`` and ``child.py`` read it. This
module holds what the JSON cannot carry: how the derived per-layer
statistics are computed, and which per-layer metrics must repeat exactly
from run to run. Which public function each span wraps is in
``spans.py``.
"""

from __future__ import annotations

import json
import os
from typing import Dict

SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")

#: Per-layer ratios of two counters: they repeat exactly, as counts do.
_COUNT_RATIOS = ("memo_hit_ratio", "delivered_ratio")


def load_spec() -> dict:
    """``BENCHMARK.json``: the workloads and every metric's name and unit."""
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def layer_value(stats: Dict[str, float], stat: str) -> float:
    """Statistic ``stat`` of one span's :func:`spans.layer_stats` entry.

    ``memo_hit_ratio`` = 1 - synthesized / evaluations and
    ``delivered_ratio`` = rows delivered / send attempts; every other
    statistic is recorded directly. A span never entered reads 0.
    """
    if stat == "memo_hit_ratio":
        evaluations = stats.get("evaluations", 0)
        return 1.0 - stats.get("synthesized", 0) / evaluations if evaluations else 0.0
    if stat == "delivered_ratio":
        attempts = stats.get("attempts", 0)
        return stats.get("delivered", 0) / attempts if attempts else 0.0
    return stats.get(stat, 0)


def is_exact(name: str, unit: str) -> bool:
    """Whether a per-layer metric must repeat exactly between runs."""
    return unit in ("count", "B", "sim_s") \
        or name.rsplit(".", 1)[-1] in _COUNT_RATIOS
