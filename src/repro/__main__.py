"""Command-line entry point: regenerate the paper's experiments.

Usage::

    python -m repro list
    python -m repro run fig4 [--seed N] [--fast] [--jobs N] [--faults SPEC]
                             [--unit-timeout S] [--max-retries N]
    python -m repro run all  [--seed N] [--fast] [--jobs N]
    python -m repro pipeline [--jobs N] [--faults SPEC] [--resume DIR]
    python -m repro report   [--seed N] [--fast]

``--fast`` runs each experiment at its reduced budget
(:data:`repro.experiments.FAST`) instead of the paper's; ``--jobs`` fans
the shardable experiments (fig4/fig6/fig7/table1) out across worker
processes -- results are bit-identical at any worker count.
``--faults SPEC`` (e.g. ``random=77,real=7,thermal=0``, see
:class:`repro.core.faults.FaultSpec`) injects seeded schedules of real
worker exits (``random``, which in ``pipeline`` also corrupts and drops
uploads), worker exits, deadline hangs and poison units (``real``), and
thermal rig faults in the regulated DRAM experiments (``thermal``). The
supervised engine and the measurement-gated regulation recover from
recoverable faults with results unchanged; unrecoverable ones surface
as typed unit or zone quarantines. ``--unit-timeout`` and
``--max-retries`` tune the supervisor's per-unit deadline and retry
budget (see :mod:`repro.core.supervisor`). A malformed flag value exits
with code 2 and a message naming the flag, and so does ``--faults``
where nothing would inject it: on an experiment whose driver takes no
run options, or a ``thermal`` seed on ``pipeline``, which has no rig.

``pipeline`` exercises the full execution -> transport -> cloud result
pipeline under injected faults and checkpoint/resume. Every shard is
checkpointed in ``--resume DIR`` as it finishes, so a study that is
killed or interrupted (Ctrl-C) resumes from the same ``--resume DIR``,
skipping both completed and quarantined shards.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time

from repro.rand import DEFAULT_SEED


def _add_common_flags(parser, fast_help: str) -> None:
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--fast", action="store_true", help=fast_help)


def _add_execution_flags(parser) -> None:
    from repro.core.supervisor import DEFAULT_MAX_RETRIES

    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (results identical at any "
                        "count)")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="inject seeded faults, e.g. random=77,real=7,"
                        "thermal=0; recoverable ones leave results "
                        "unchanged")
    parser.add_argument("--unit-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="a unit still running after SECONDS is hung: "
                        "its worker is replaced and the unit re-issued "
                        "(default: no deadline)")
    parser.add_argument("--max-retries", type=int,
                        default=DEFAULT_MAX_RETRIES, metavar="N",
                        help="failures a unit may cost before it is "
                        f"quarantined (default: {DEFAULT_MAX_RETRIES})")


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (``main`` parses with it)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the DSN'18 guardbands paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiment ids")
    runner = sub.add_parser("run", help="run one experiment (or 'all')")
    runner.add_argument("experiment", help="experiment id or 'all'")
    _add_common_flags(runner, "reduced budgets for a quick smoke pass")
    _add_execution_flags(runner)
    pipe = sub.add_parser(
        "pipeline", help="run the execution -> transport -> cloud result "
        "pipeline, optionally under injected faults and checkpoint/resume")
    _add_common_flags(pipe, "smaller campaign set for a quick pass")
    _add_execution_flags(pipe)
    pipe.add_argument("--transport", choices=("network", "serial"),
                      default="network", help="lossy link to upload through")
    pipe.add_argument("--resume", default=None, metavar="DIR",
                      help="checkpoint directory; finished shards are not "
                      "re-executed on rerun")
    pipe.add_argument("--out", default=None, metavar="CSV",
                      help="write the cloud-side result rows to this CSV")
    reporter = sub.add_parser(
        "report", help="run every experiment and render the full "
        "paper-vs-measured reproduction report")
    _add_common_flags(reporter, "reduced budgets for a quick smoke pass")
    return parser


def _usage_error(flag: str, problem) -> int:
    print(f"{flag}: {problem}", file=sys.stderr)
    return 2


def _run_pipeline(args, options) -> int:
    from repro.experiments import FAST
    from repro.experiments.pipeline import run_pipeline

    if options.faults is not None and options.faults.thermal is not None:
        return _usage_error("--faults", "pipeline has no thermal rig to "
                            "fault; use random= and/or real=")
    budget = FAST["pipeline"] if args.fast else {}
    result = run_pipeline(
        seed=args.seed, jobs=args.jobs, transport=args.transport,
        resume_dir=args.resume, out_csv=args.out, options=options,
        **budget)
    print(result.format())
    if args.out:
        print(f"cloud-side rows written to {args.out}")
    return 0 if result.exactly_once else 1


def _run_experiments(args, options) -> int:
    from repro.experiments import FAST, REGISTRY

    targets = list(REGISTRY) if args.experiment == "all" \
        else [args.experiment]
    unknown = [t for t in targets if t not in REGISTRY]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(REGISTRY)}", file=sys.stderr)
        return 2
    if options.faults is not None and args.experiment != "all" and \
            "options" not in inspect.signature(REGISTRY[targets[0]]).parameters:
        return _usage_error("--faults", f"{targets[0]} injects no faults")
    for name in targets:
        driver = REGISTRY[name]
        kwargs = dict(FAST.get(name, {})) if args.fast else {}
        declared = inspect.signature(driver).parameters
        if "jobs" in declared:
            kwargs["jobs"] = args.jobs
        if "options" in declared:
            kwargs["options"] = options
        start = time.perf_counter()
        result = driver(seed=args.seed, **kwargs)
        elapsed = time.perf_counter() - start
        print("=" * 72)
        print(result.format())
        print(f"[{name}: {elapsed:.1f}s]")
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.core.faults import FaultSpec
    from repro.errors import CampaignError
    from repro.experiments import REGISTRY
    from repro.experiments.common import RunOptions
    from repro.rand import resolve_seed

    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in REGISTRY:
            print(name)
        return 0
    try:
        resolve_seed(args.seed)
    except CampaignError as exc:
        return _usage_error("--seed", exc)
    if args.command == "report":
        from repro.analysis.reporting import build_report
        report = build_report(seed=args.seed, fast=args.fast)
        print(report.render())
        return 0 if report.all_passed else 1
    if args.jobs < 1:
        return _usage_error("--jobs", "must be >= 1")
    try:
        faults = None if args.faults is None else FaultSpec.parse(args.faults)
    except CampaignError as exc:
        return _usage_error("--faults", exc)
    try:
        options = RunOptions(args.unit_timeout, args.max_retries, faults)
    except CampaignError as exc:
        return _usage_error("--unit-timeout/--max-retries", exc)
    if args.command == "pipeline":
        return _run_pipeline(args, options)
    return _run_experiments(args, options)


if __name__ == "__main__":
    sys.exit(main())
