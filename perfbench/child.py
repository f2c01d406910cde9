"""One benchmark process, started by ``run.py``.

Modes:

- ``setup``: time one cold campaign in a fresh process, from before
  ``import repro`` to the campaign's end;
- ``measure``: one cold campaign (a set-up sample), then a closed loop of
  campaigns for ``--seconds``, with tracing off;
- ``trace``: a fixed number of rounds, each running one campaign seed
  three ways -- at ``jobs=1`` with only the supervisor and drivers
  spanned, at ``jobs=1`` with every layer traced, and at the workload's
  ``pool_jobs`` with only the supervisor and drivers spanned -- and
  checking that all three print the same rows.

The last line of standard output is one JSON object for ``run.py``.
"""

import time

_START = time.perf_counter()  # set-up time counts from before `import repro`

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import repro  # noqa: E402

from campaigns import WORKLOADS, campaign_seed  # noqa: E402
from metrics import layer_value, load_spec  # noqa: E402
from spans import (  # noqa: E402
    LAYER_HOOKS,
    SUPERVISOR_SPAN,
    UNIT_SPAN,
    Tracer,
    install,
    layer_stats,
    supervisor_hook,
    untraced,
    write_spans,
)

#: Rounds of a traced run. Fixed, so every count repeats exactly.
TRACE_ROUNDS = 3

PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def environment() -> dict:
    """What the numbers depend on besides the code."""
    import multiprocessing
    import platform

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "start_method": multiprocessing.get_start_method(),
    }


def run_campaign(args, tag: str, jobs: int, call=untraced) -> dict:
    """Run, time and check one campaign; never raises."""
    spec = WORKLOADS[args.workload]
    budget = spec.paper if args.budget == "paper" else spec.tiny
    seed = campaign_seed(args.workload, args.seed, tag)
    start = time.perf_counter()
    try:
        outcome = spec.run(call, seed, jobs, budget, args.workdir)
    except Exception:  # noqa: BLE001 -- a raising campaign counts as failed
        traceback.print_exc()
        end = time.perf_counter()
        return {"tag": tag, "seed": seed, "seconds": end - start, "end": end,
                "ok": False, "failed_checks": ["raised"], "digest": None,
                "work": 0}
    end = time.perf_counter()
    return {"tag": tag, "seed": seed, "seconds": end - start, "end": end,
            "ok": outcome.ok,
            "failed_checks": [name for name, held in outcome.checks.items()
                              if not held],
            "digest": outcome.digest(), "work": outcome.work}


@contextlib.contextmanager
def host_probe():
    """Yield a function that returns the host-speed probe's time now.

    The probe (``probe.py``) runs in a process of its own that never
    imports ``repro``, so nothing the program leaves behind in this
    process -- heap, caches, threads -- moves it. It waits on its input
    while a campaign runs.
    """
    process = subprocess.Popen([sys.executable, PROBE], stdin=subprocess.PIPE,
                               stdout=subprocess.PIPE, text=True)

    def probe() -> float:
        process.stdin.write("\n")
        process.stdin.flush()
        return float(process.stdout.readline())

    try:
        yield probe
    finally:
        process.kill()
        process.communicate()


def cold_campaign(args) -> dict:
    """The process's first campaign; set-up time counts from process start."""
    record = run_campaign(args, args.tag, WORKLOADS[args.workload].jobs)
    record["setup_s"] = record["end"] - _START
    return record


def setup(args) -> dict:
    record = cold_campaign(args)
    with host_probe() as probe:
        record["probe_s"] = probe()
    return {"setup": record}


def measure(args) -> dict:
    jobs = WORKLOADS[args.workload].jobs
    cold = cold_campaign(args)
    campaigns = []
    with host_probe() as probe:
        cold["probe_s"] = probe()
        deadline = time.perf_counter() + args.seconds
        while not campaigns or time.perf_counter() < deadline:
            probe_s = probe()
            campaigns.append(run_campaign(args, str(len(campaigns)), jobs))
            campaigns[-1]["probe_s"] = probe_s
        # Read before the probe process is reaped, so only pool workers count.
        workers_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "env": environment(),
        "setup": cold,
        "campaigns": campaigns,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "workers_peak_rss_kib": workers_kib,
    }


def trace_metrics(names, light: Tracer, full: Tracer, pooled: Tracer,
                  timed_jobs: int, traced_s, untraced_s) -> dict:
    """The per-layer metrics ``names`` from the three passes of a traced run.

    Layer statistics come from the fully traced ``jobs=1`` pass. The
    supervisor's wall time and attempt ledger come from the pass at the
    workload's ``pool_jobs``; its useful unit time from the lightly
    traced ``jobs=1`` pass, where units run inline and the layers are
    untraced. Its efficiency divides that unit time by the worker time
    the pooled calls really had: each call's wall time times the workers
    it used (one for a call of a single unit, which runs inline). Driver
    wall times come from the pass whose worker count matches the timed
    campaigns (``timed_jobs``).
    """
    light_stats, full_stats = layer_stats(light), layer_stats(full)
    pooled_stats = layer_stats(pooled)
    supervisor = pooled_stats.get(SUPERVISOR_SPAN, {})
    units = supervisor.get("units", 0)
    worker_s = supervisor.get("worker_s", 0.0)
    unit_busy_s = light_stats.get(UNIT_SPAN, {}).get("busy_s", 0.0)
    traced_p50 = statistics.median(traced_s)
    untraced_p50 = statistics.median(untraced_s)
    prefix = f"{SUPERVISOR_SPAN}."
    derived = {
        prefix + "wall_s": supervisor.get("busy_s", 0.0),
        prefix + "unit_busy_s": unit_busy_s,
        prefix + "efficiency": unit_busy_s / worker_s if worker_s else 0.0,
        prefix + "overhead_s_per_unit":
            (worker_s - unit_busy_s) / units if units else 0.0,
        "trace.campaigns": len(traced_s),
        "trace.campaign_s_p50": traced_p50,
        "trace.untraced_campaign_s_p50": untraced_p50,
        "trace.overhead_ratio": traced_p50 / untraced_p50,
    }
    drivers = light_stats if timed_jobs == 1 else pooled_stats
    layer_spans = {hook.span for hook in LAYER_HOOKS}
    metrics = {}
    for name in names:
        span, stat = name.rsplit(".", 1)
        if name in derived:
            metrics[name] = derived[name]
        elif span == SUPERVISOR_SPAN:
            metrics[name] = layer_value(supervisor, stat)
        elif span.startswith("experiments.") and stat == "wall_s":
            metrics[name] = drivers.get(span, {}).get("busy_s", 0.0)
        elif span in layer_spans:
            metrics[name] = layer_value(full_stats.get(span, {}), stat)
        else:
            raise KeyError(f"BENCHMARK.json names {name}, which no span measures")
    return metrics


def trace(args) -> dict:
    spec = WORKLOADS[args.workload]
    jobs = spec.pool_jobs
    campaigns = [run_campaign(args, "cold", spec.jobs)]
    light, full, pooled = Tracer(), Tracer(), Tracer()
    mismatched = 0
    traced_s, untraced_s = [], []
    for round_index in range(TRACE_ROUNDS):
        tag = f"trace-{round_index}"
        with install(light, [supervisor_hook(time_units=True)]):
            reference = run_campaign(args, tag, 1, light.call)
        with install(full, LAYER_HOOKS):
            traced = run_campaign(args, tag, 1, full.call)
        with install(pooled, [supervisor_hook(time_units=False)]):
            parallel = run_campaign(args, tag, jobs, pooled.call)
        round_campaigns = [reference, traced, parallel]
        campaigns += round_campaigns
        # Tracing and the worker count must not change a single row.
        if len({c["digest"] for c in round_campaigns}) != 1:
            mismatched += 1
            print(f"round {round_index}: row digests differ across passes",
                  file=sys.stderr)
        traced_s.append(traced["seconds"])
        untraced_s.append(reference["seconds"])
    spans_path = os.path.join(args.workdir,
                              f"spans-{args.workload}-seed{args.seed}.csv")
    write_spans(spans_path, {"light-jobs1": light, "full-jobs1": full,
                             f"pooled-jobs{jobs}": pooled})
    names = [metric["name"] for metric in load_spec()["per_layer"]]
    return {
        "env": environment(),
        "campaigns": campaigns,
        "mismatched_rounds": mismatched,
        "metrics": trace_metrics(names, light, full, pooled, spec.jobs,
                                 traced_s, untraced_s),
        "spans": spans_path,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--budget", choices=("paper", "tiny"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tag", default="setup")
    args = parser.parse_args()
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"repro was imported from {repro.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    report = {"setup": setup, "measure": measure, "trace": trace}[args.mode](args)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
