"""Self-test of the benchmark at tiny driver budgets.

    python3 perfbench/selftest.py

For each workload it makes one untraced run and two traced runs, and
checks that every metric ``BENCHMARK.json`` names is emitted with its
unit, that no campaign failed, and that every per-layer count is
identical across the two traced runs. Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import List

from campaigns import WORKLOADS
from metrics import is_exact

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, trace: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--budget", "tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command[1:])} exited with "
                           f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def metric_problems(label: str, result: dict, declared: List[dict]) -> List[str]:
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    expected = {metric["name"]: metric["unit"] for metric in declared}
    problems = [f"{label}: {name} missing" for name in expected
                if name not in emitted]
    problems += [f"{label}: {name} not declared" for name in emitted
                 if name not in expected]
    problems += [f"{label}: {name} has unit {emitted[name]}, "
                 f"declared {expected[name]}"
                 for name in expected
                 if name in emitted and emitted[name] != expected[name]]
    if result["failed"] or not result["correct"]:
        problems.append(f"{label}: {result['failed']} of "
                        f"{result['attempted']} campaigns failed")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    declared = sorted(workload["name"] for workload in spec["workloads"])
    if declared != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json declares workloads {declared}, "
                        f"the benchmark runs {sorted(WORKLOADS)}")
    for workload in WORKLOADS:
        problems += metric_problems(f"{workload} untraced", run(workload, 0),
                                    spec["end_to_end"])
        first, second = run(workload, 1), run(workload, 1)
        for label, result in (("traced", first), ("traced again", second)):
            problems += metric_problems(f"{workload} {label}", result,
                                        spec["per_layer"])
        for name, metric in first["metrics"].items():
            again = second["metrics"].get(name, {}).get("value")
            if is_exact(name, metric["unit"]) and metric["value"] != again:
                problems.append(f"{workload}: {name} read {metric['value']} "
                                f"then {again}")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
