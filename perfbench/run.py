"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload virus-search --seed 1 --seconds 30 --trace 0

Workloads are defined in ``campaigns.py``. Each runs as a closed loop:
one client submits the next campaign when the previous one returns. The
program is imported from ``src/`` of this checkout and runs as
``python -m repro`` would run it: the benchmark sets no BLAS thread
variables.

``--trace 0`` times campaigns with tracing off and reports the
end-to-end metrics; ``--trace 1`` runs the traced rounds and reports the
per-layer metrics. ``BENCHMARK.json`` names both lists, with their units.
Lines before the last describe the environment, every campaign (seed,
seconds, row digest, checks) and every metric with its unit; the last
line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is not 0, and no JSON is
printed, when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from campaigns import WORKLOADS
from metrics import load_spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")

#: Fresh processes that each time one cold campaign, besides the cold
#: campaign of the measuring process: set-up time is their median.
SETUP_PROCESSES = 2

#: Wall-clock budget of one benchmark run, below the 180 s it must meet.
RUN_BUDGET_S = 170.0

#: Time of the host-speed reference kernel (``probe.py``) on the two-core
#: machine the benchmark was designed on. Reported times are host seconds
#: at that speed: a run's raw times are multiplied by REFERENCE_S over
#: the kernel's median time in the same run, which takes out most of the
#: drift in the speed of a shared host (on that machine, the spread of
#: dram-retention's campaign_s_p50 over 10 runs fell from 43 % to 17 % of
#: its median). Raw times are printed as well.
REFERENCE_S = 0.0025


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_child(mode: str, args, tag: str, deadline: float) -> dict:
    """Run ``child.py`` in its own process group; return its JSON report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (SRC, env.get("PYTHONPATH")) if path)
    command = [sys.executable, os.path.join(HERE, "child.py"), mode,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--budget", args.budget,
               "--workdir", WORKDIR, "--tag", tag]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                               cwd=ROOT, text=True, start_new_session=True)
    try:
        out, _ = process.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process ran past the run budget") from None
    finally:
        # Also stops pool workers and the probe a failed child left behind.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if process.returncode != 0:
        raise BenchError(f"{mode} process exited with {process.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process printed no report")
    return json.loads(lines[-1])


def print_campaign(record: dict) -> None:
    status = "ok" if record["ok"] else \
        "FAILED " + ",".join(record["failed_checks"])
    print(f"campaign {record['tag']}: seed {record['seed']} "
          f"{record['seconds']:.4f} s rows {record['digest']} {status}")


def declared(values: dict, listed: list) -> dict:
    """Print and return every metric ``listed`` in BENCHMARK.json."""
    metrics = {}
    for metric in listed:
        name, unit = metric["name"], metric["unit"]
        if name not in values:
            raise BenchError(f"BENCHMARK.json names {name}, "
                             "which this run does not measure")
        print(f"{name} {values[name]!r} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics


def end_to_end(args, spec: dict, deadline: float):
    """Set-up processes, then the measuring process: end-to-end metrics."""
    setups = [run_child("setup", args, f"setup-{index}", deadline)["setup"]
              for index in range(SETUP_PROCESSES)]
    report = run_child("measure", args, "cold", deadline)
    print("env " + json.dumps(report["env"], sort_keys=True))
    setups.append(report["setup"])
    campaigns = report["campaigns"]
    for record in setups + campaigns:
        print_campaign(record)
    seconds = [record["seconds"] for record in campaigns]
    work = sum(record["work"] for record in campaigns)
    speed = REFERENCE_S / statistics.median(record["probe_s"]
                                            for record in campaigns)
    peak_kib = report["peak_rss_kib"]
    # With jobs=1 every unit runs inline: the measuring process is the worker.
    workers_kib = report["workers_peak_rss_kib"] or peak_kib
    values = {
        "campaign_s_p50": statistics.median(seconds) * speed,
        "work_per_s": work / (sum(seconds) * speed),
        "setup_s": statistics.median(record["setup_s"] * REFERENCE_S
                                     / record["probe_s"] for record in setups),
        "peak_rss_mb": peak_kib / 1024.0,
        "worker_peak_rss_mb": workers_kib / 1024.0,
    }
    print(f"host_speed {speed!r} (reference kernel {REFERENCE_S} s "
          "over its median time in this run)")
    print(f"raw campaign_s_p50 {statistics.median(seconds)!r} s, "
          f"work_per_s {work / sum(seconds)!r} work/s, setup_s "
          f"{statistics.median(record['setup_s'] for record in setups)!r} s")
    attempted = setups + campaigns
    failed = sum(not record["ok"] for record in attempted)
    metrics = declared(values, spec["end_to_end"])
    work_name, work_unit = WORKLOADS[args.workload].work
    print(f"{work_name} {values['work_per_s']!r} {work_unit}")
    print(f"failed_frac {failed / len(attempted)!r} ratio")
    print(f"campaigns {len(campaigns)} count "
          "(campaign_s_p50 sample count; set-up campaigns excluded)")
    if len(seconds) > 10:
        rank = len(seconds) - 11  # the highest with ten samples beyond it
        print(f"campaign_s_tail {sorted(seconds)[rank] * speed!r} s "
              f"(p{100 * (rank + 1) / len(seconds):.0f} of {len(seconds)})")
    return metrics, len(attempted), failed


def traced(args, spec: dict, deadline: float):
    """The traced run: per-layer metrics."""
    report = run_child("trace", args, "trace", deadline)
    print("env " + json.dumps(report["env"], sort_keys=True))
    for record in report["campaigns"]:
        print_campaign(record)
    print(f"spans written to {os.path.relpath(report['spans'], ROOT)}")
    metrics = declared(report["metrics"], spec["per_layer"])
    campaigns = report["campaigns"]
    failed = sum(not record["ok"] for record in campaigns) \
        + report["mismatched_rounds"]
    return metrics, len(campaigns), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--budget", choices=("paper", "tiny"), default="paper",
                        help="driver budgets: the paper's, or tiny ones "
                        "for the self-test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    os.makedirs(WORKDIR, exist_ok=True)
    # On SIGTERM, unwind through run_child's cleanup, which stops the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        metrics, attempted, failed = (traced if args.trace else end_to_end)(
            args, spec, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
