"""The hardened result pipeline, end to end (paper Figure 2).

``python -m repro pipeline`` drives this: declare campaigns, execute
them on the process-parallel engine (optionally under an injected fault
schedule and/or a checkpoint directory), ship every row through a lossy
transport into the cloud store, and verify the pipeline's exactly-once
contract -- the cloud's materialized rows must be exactly the executor's
rows, no matter what faults were injected along the way.

This is the harness-robustness demonstration the paper's framework
section is about: the benchmark results are unremarkable on purpose; the
point is that they *survive* worker deaths, hangs, transport
corruption/loss bursts and whole-study interruptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.campaign import Campaign, CampaignPlan
from repro.core.checkpoint import CampaignCheckpoint
from repro.core.faults import FaultInjector, FaultStats
from repro.core.parallel import ParallelCampaignExecutor, resolve_seed
from repro.core.results import ResultStore
from repro.core.supervisor import SupervisorStats, UnitFailure
from repro.core.transport import (
    CloudStore,
    NetworkLink,
    ResultUploader,
    SerialLink,
    TransportStats,
)
from repro.errors import CampaignError
from repro.experiments.common import RunOptions, format_quarantine_lines
from repro.rand import SeedLike
from repro.soc.corners import ProcessCorner
from repro.soc.xgene2 import build_reference_chips
from repro.workloads.spec import spec_suite

#: Transport choices exposed by the CLI.
TRANSPORTS = ("network", "serial")


@dataclass(frozen=True)
class PipelineResult:
    """Everything the pipeline run produced, plus its delivery audit."""

    chip: str
    campaigns: int
    executed_rows: int
    cloud_rows: int
    duplicates: int
    uploaded_ok: int
    upload_failed: int
    shards_executed: int
    shards_resumed: int
    shards_quarantined: int
    supervision: SupervisorStats
    failures: Tuple[UnitFailure, ...]
    transport: str
    transport_stats: TransportStats
    fault_stats: Optional[FaultStats]
    exactly_once: bool
    store: ResultStore

    def format(self) -> str:
        lines = [
            f"Result pipeline on {self.chip}: {self.campaigns} campaign "
            f"shard(s), {self.executed_rows} rows",
            f"shards: {self.shards_executed} executed, "
            f"{self.shards_resumed} resumed from checkpoint, "
            f"{self.shards_quarantined} quarantined",
            f"supervision: {self.supervision.describe()}",
            f"transport ({self.transport}): {self.transport_stats.attempts} "
            f"attempts, {self.transport_stats.delivered} rows delivered, "
            f"{self.transport_stats.corrupted} corrupted, "
            f"{self.transport_stats.dropped} dropped, "
            f"{self.transport_stats.ack_lost} acks lost, "
            f"retry rate {self.transport_stats.retry_rate:.3f}",
            f"cloud: {self.cloud_rows} rows, "
            f"{self.duplicates} duplicates absorbed",
        ]
        lines.extend(format_quarantine_lines(self.failures))
        if self.fault_stats is not None:
            lines.append(
                f"injected faults: {self.fault_stats.corrupted_frames} "
                f"corrupted frames, {self.fault_stats.dropped_packets} "
                f"dropped packets, "
                f"{self.fault_stats.unit_exits} worker exits, "
                f"{self.fault_stats.unit_hangs} hangs, "
                f"{self.fault_stats.poison_raises} poison raises")
        lines.append("exactly-once contract: "
                     + ("OK (cloud rows == executed rows)"
                        if self.exactly_once else "VIOLATED"))
        return "\n".join(lines)


def _declare_campaigns(benchmarks: int, repetitions: int, start_mv: float,
                       stop_mv: float, step_mv: float) -> List[Campaign]:
    plan = CampaignPlan()
    plan.add_workloads(spec_suite()[:benchmarks])
    plan.add_voltage_sweep(start_mv, stop_mv, step_mv,
                           repetitions=repetitions)
    return plan.build()


def run_pipeline(seed: SeedLike = None, benchmarks: int = 4,
                 repetitions: int = 3, jobs: int = 1,
                 start_mv: float = 980.0, stop_mv: float = 880.0,
                 step_mv: float = 20.0, transport: str = "network",
                 resume_dir: Optional[str] = None,
                 out_csv: Optional[str] = None,
                 options: RunOptions = RunOptions()) -> PipelineResult:
    """Run the full execution -> transport -> cloud pipeline once.

    ``options`` sets the supervisor's per-shard deadline and retry
    budget and the injected faults: a ``random`` seed draws worker exits
    for the engine and bursts for the transport, a ``real`` seed worker
    exits, deadline hangs and poison units that replace those exits
    (see :meth:`~repro.core.faults.FaultSpec.plan`). ``resume_dir``
    checkpoints completed campaign shards there and resumes any that
    already finished (quarantined shards are skipped and their typed
    failures resurfaced). Raises
    :class:`~repro.errors.CampaignInterrupted` if the fault plan injects
    a study-level interruption (rerun with the same ``resume_dir`` to
    finish).
    """
    if transport not in TRANSPORTS:
        raise CampaignError(f"unknown transport {transport!r}; "
                            f"choose from {', '.join(TRANSPORTS)}")
    base = resolve_seed(seed)
    chip = build_reference_chips(seed=base)[ProcessCorner.TTT]
    campaigns = _declare_campaigns(benchmarks, repetitions, start_mv,
                                   stop_mv, step_mv)
    total_rows = sum(len(c.runs) for c in campaigns) * repetitions

    plan = options.plan(units=len(campaigns), rows=total_rows)
    injector = None if plan is None else FaultInjector(plan)
    checkpoint = CampaignCheckpoint(resume_dir) if resume_dir else None

    engine = ParallelCampaignExecutor(chip, seed=base, jobs=jobs,
                                      fault_injector=injector,
                                      checkpoint=checkpoint,
                                      unit_timeout=options.unit_timeout,
                                      max_retries=options.max_retries)
    engine.execute_campaigns(campaigns)

    cloud = CloudStore()
    if transport == "serial":
        link = SerialLink(cloud, bit_error_rate=1e-4, max_retries=8,
                          seed=base, fault_injector=injector)
    else:
        link = NetworkLink(cloud, loss_rate=0.05, ack_loss_rate=0.02,
                           max_retries=8, seed=base, fault_injector=injector)
    ok, failed = ResultUploader(link).upload(engine.store)

    received = cloud.to_store()
    exactly_once = sorted(received.rows()) == sorted(engine.store.rows())
    if out_csv is not None:
        received.write_csv(out_csv)
    return PipelineResult(
        chip=chip.serial,
        campaigns=len(campaigns),
        executed_rows=len(engine.store),
        cloud_rows=len(cloud),
        duplicates=cloud.duplicates,
        uploaded_ok=ok,
        upload_failed=failed,
        shards_executed=engine.shards_executed,
        shards_resumed=engine.shards_resumed,
        shards_quarantined=engine.shards_quarantined,
        supervision=engine.supervision,
        failures=engine.failures,
        transport=transport,
        transport_stats=link.stats,
        fault_stats=injector.stats if injector is not None else None,
        exactly_once=exactly_once,
        store=received,
    )


#: Uniform entry point, matching the other experiment drivers.
run = run_pipeline
