"""Command-line entry point: regenerate the paper's experiments.

Usage::

    python -m repro list
    python -m repro run fig4 [--seed N] [--fast] [--jobs N] [--faults N]
                             [--real-faults N] [--unit-timeout S]
                             [--max-retries N]
    python -m repro run all  [--seed N] [--fast] [--jobs N]
    python -m repro run table1 [--thermal-faults N]
    python -m repro pipeline [--jobs N] [--faults N] [--real-faults N]
                             [--resume DIR]

``--fast`` trims repetitions/GA budgets for a quick smoke pass;
``--jobs`` fans the shardable experiments (fig4/fig6/fig7/table1) out
across worker processes -- results are bit-identical at any worker
count. ``--faults SEED`` injects a deterministic schedule of real
worker exits into the shardable experiments and ``--real-faults SEED``
one of worker exits, deadline hangs and poison units that replaces it;
the supervised engine recovers from both and results are unchanged. ``--unit-timeout`` and
``--max-retries`` tune the supervisor's per-unit deadline and retry
budget (see :mod:`repro.core.supervisor`). ``--thermal-faults SEED``
injects a deterministic *thermal rig* fault schedule (stuck/drifting
thermocouples, SPD timeouts, relay/heater failures, ambient steps) into
the DRAM experiments' regulated measurement chain: recoverable faults
are detected, re-regulated and leave the rows bit-identical to the
clean run; unrecoverable ones surface as typed zone quarantines. The
default settings match the benches.

``pipeline`` exercises the full execution -> transport -> cloud result
pipeline under injected faults and checkpoint/resume; an interrupted
study exits with code 3 and resumes from ``--resume DIR``, skipping
both completed and quarantined shards.

Experiment ids come from :data:`repro.experiments.REGISTRY`; the lambdas
below only adapt per-experiment budget knobs to the shared flags.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict

from repro.rand import DEFAULT_SEED


def _experiments() -> Dict[str, Callable]:
    from repro.experiments import REGISTRY

    def plain(name):
        return lambda seed, fast, jobs, faults, sup, thermal: \
            REGISTRY[name](seed=seed)

    adapters = {
        "fig4": lambda seed, fast, jobs, faults, sup, thermal:
            REGISTRY["fig4"](
                seed=seed, repetitions=3 if fast else 10, jobs=jobs,
                faults=faults, **sup),
        "fig5": lambda seed, fast, jobs, faults, sup, thermal:
            REGISTRY["fig5"](seed=seed, repetitions=3 if fast else 10),
        "fig6": lambda seed, fast, jobs, faults, sup, thermal:
            REGISTRY["fig6"](
                seed=seed, repetitions=3 if fast else 10,
                generations=8 if fast else 25,
                population=16 if fast else 32,
                jobs=jobs, faults=faults, **sup),
        "fig7": lambda seed, fast, jobs, faults, sup, thermal:
            REGISTRY["fig7"](
                seed=seed, repetitions=3 if fast else 10,
                generations=8 if fast else 25,
                population=16 if fast else 32,
                jobs=jobs, faults=faults, **sup),
        "table1": lambda seed, fast, jobs, faults, sup, thermal:
            REGISTRY["table1"](
                seed=seed, regulate=not fast,
                sample_devices=24 if fast else 72, jobs=jobs,
                faults=faults, thermal_faults=thermal, **sup),
        "fig8a": lambda seed, fast, jobs, faults, sup, thermal:
            REGISTRY["fig8a"](seed=seed, thermal_faults=thermal),
        "fig9": lambda seed, fast, jobs, faults, sup, thermal:
            REGISTRY["fig9"](seed=seed, repetitions=3 if fast else 10),
        "multiprocess": lambda seed, fast, jobs, faults, sup, thermal:
            REGISTRY["multiprocess"](seed=seed,
                                     repetitions=3 if fast else 5),
    }
    return {name: adapters.get(name, plain(name)) for name in REGISTRY}


def _supervision_kwargs(args) -> Dict[str, object]:
    """The supervised-execution knobs shared by ``run`` and ``pipeline``."""
    return {
        "real_faults": args.real_faults,
        "unit_timeout": args.unit_timeout,
        "max_retries": args.max_retries,
    }


def _add_supervision_flags(parser) -> None:
    from repro.core.supervisor import DEFAULT_MAX_RETRIES

    parser.add_argument("--real-faults", type=int, default=None,
                        metavar="SEED",
                        help="inject a deterministic schedule of REAL "
                        "process-level faults (worker os._exit, deadline "
                        "hangs) seeded by SEED; the supervised engine "
                        "recovers and results are unchanged")
    parser.add_argument("--unit-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-unit supervision deadline: a work unit "
                        "still running after SECONDS is treated as hung, "
                        "its pool is rebuilt and the unit re-issued "
                        "(default: no deadline)")
    parser.add_argument("--max-retries", type=int,
                        default=DEFAULT_MAX_RETRIES, metavar="N",
                        help="per-unit budget of attributed failures "
                        "(crash/hang/poison) before the unit is "
                        "quarantined as a typed UnitFailure "
                        f"(default: {DEFAULT_MAX_RETRIES})")


def _run_pipeline(args) -> int:
    from repro.errors import CampaignInterrupted
    from repro.experiments.pipeline import run_pipeline

    try:
        result = run_pipeline(
            seed=args.seed,
            benchmarks=2 if args.fast else 4,
            repetitions=2 if args.fast else 3,
            jobs=args.jobs,
            transport=args.transport,
            faults=args.faults,
            resume_dir=args.resume,
            out_csv=args.out,
            **_supervision_kwargs(args),
        )
    except CampaignInterrupted as exc:
        print(f"pipeline interrupted: {exc}", file=sys.stderr)
        if args.resume:
            print(f"rerun with --resume {args.resume} to finish the "
                  "remaining shards", file=sys.stderr)
        else:
            print("rerun with --resume DIR to make interruptions "
                  "recoverable", file=sys.stderr)
        return 3
    print(result.format())
    if args.out:
        print(f"cloud-side rows written to {args.out}")
    return 0 if result.exactly_once else 1


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the DSN'18 guardbands paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiment ids")
    runner = sub.add_parser("run", help="run one experiment (or 'all')")
    runner.add_argument("experiment", help="experiment id or 'all'")
    runner.add_argument("--seed", type=int, default=DEFAULT_SEED)
    runner.add_argument("--fast", action="store_true",
                        help="reduced budgets for a quick smoke pass")
    runner.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the shardable "
                        "experiments (results identical at any count)")
    runner.add_argument("--faults", type=int, default=None, metavar="SEED",
                        help="inject a deterministic worker-failure "
                        "schedule seeded by SEED into the shardable "
                        "experiments (results are unchanged)")
    runner.add_argument("--thermal-faults", type=int, default=None,
                        metavar="SEED",
                        help="inject a deterministic thermal rig fault "
                        "schedule seeded by SEED into the regulated DRAM "
                        "experiments (table1, fig8a): recoverable faults "
                        "are re-regulated and results stay unchanged; "
                        "unrecoverable ones quarantine the affected "
                        "zones as typed records")
    _add_supervision_flags(runner)
    pipe = sub.add_parser(
        "pipeline", help="run the execution -> transport -> cloud result "
        "pipeline, optionally under injected faults and checkpoint/resume")
    pipe.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pipe.add_argument("--fast", action="store_true",
                      help="smaller campaign set for a quick pass")
    pipe.add_argument("--jobs", type=int, default=1,
                      help="worker processes for campaign shards")
    pipe.add_argument("--transport", choices=("network", "serial"),
                      default="network", help="lossy link to upload through")
    pipe.add_argument("--faults", type=int, default=None, metavar="SEED",
                      help="inject a deterministic fault schedule (worker "
                      "exits, transport bursts) seeded by SEED")
    _add_supervision_flags(pipe)
    pipe.add_argument("--resume", default=None, metavar="DIR",
                      help="checkpoint directory: completed and "
                      "quarantined campaign shards persist here and are "
                      "not re-executed on rerun")
    pipe.add_argument("--out", default=None, metavar="CSV",
                      help="write the cloud-side result rows to this CSV")
    reporter = sub.add_parser(
        "report", help="run every experiment and render the full "
        "paper-vs-measured reproduction report")
    reporter.add_argument("--seed", type=int, default=DEFAULT_SEED)
    reporter.add_argument("--fast", action="store_true")
    args = parser.parse_args(argv)

    experiments = _experiments()
    if args.command == "list":
        for name in experiments:
            print(name)
        return 0
    if args.command == "report":
        from repro.analysis.reporting import build_report
        report = build_report(seed=args.seed, fast=args.fast)
        print(report.render())
        return 0 if report.all_passed else 1
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    if args.max_retries < 0:
        print("--max-retries must be >= 0", file=sys.stderr)
        return 2
    if args.unit_timeout is not None and args.unit_timeout <= 0:
        print("--unit-timeout must be positive", file=sys.stderr)
        return 2
    if args.command == "pipeline":
        return _run_pipeline(args)

    targets = list(experiments) if args.experiment == "all" \
        else [args.experiment]
    unknown = [t for t in targets if t not in experiments]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(experiments)}", file=sys.stderr)
        return 2
    for name in targets:
        start = time.perf_counter()
        result = experiments[name](args.seed, args.fast, args.jobs,
                                   args.faults, _supervision_kwargs(args),
                                   getattr(args, "thermal_faults", None))
        elapsed = time.perf_counter() - start
        print("=" * 72)
        print(result.format())
        print(f"[{name}: {elapsed:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
