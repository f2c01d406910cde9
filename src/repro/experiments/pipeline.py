"""The hardened result pipeline, end to end (paper Figure 2).

``python -m repro pipeline`` drives this: declare campaigns, execute
them as supervised shards (optionally under an injected fault schedule
and/or a checkpoint directory), ship every row through a lossy
transport into the cloud store, and verify the pipeline's exactly-once
contract -- the cloud's materialized rows must be exactly the executor's
rows, no matter what faults were injected along the way.

This is the harness-robustness demonstration the paper's framework
section is about: the benchmark results are unremarkable on purpose; the
point is that they *survive* worker deaths, hangs, transport
corruption/loss bursts and whole-study interruptions.

Sharding keeps every row identical at any ``jobs``:

- every characterization run draws from a named substream derived from
  ``(seed, chip serial, run signature)`` (see
  :class:`repro.core.executor.CampaignExecutor`), so a run's sampled
  outcomes do not depend on which process executes it or in what order;
- each campaign shard gets a fresh executor (and therefore a fresh
  watchdog recovery ladder), so harness-side recovery accounting is
  campaign-local and also order-independent;
- shard rows come back through :func:`~repro.experiments.common.map_units`
  keyed by unit index and merge into one :class:`ResultStore` in
  campaign order.

Each shard writes its own checkpoint before it returns, inside the
worker, so a study that is killed or interrupted keeps every shard that
finished, and a rerun with the same checkpoint re-executes only the
rest -- reproducing the same rows when it does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.campaign import Campaign, CampaignPlan
from repro.core.checkpoint import CampaignCheckpoint
from repro.core.executor import CampaignExecutor
from repro.core.faults import UNIT_EXIT, UNIT_HANG, UNIT_POISON
from repro.core.results import ResultRow, ResultStore
from repro.core.supervisor import SupervisorStats, UnitFailure
from repro.core.transport import (
    CloudStore,
    NetworkLink,
    ResultUploader,
    SerialLink,
    TransportStats,
)
from repro.errors import CampaignError
from repro.experiments.common import RunOptions, format_quarantine_lines, map_units
from repro.rand import SeedLike, resolve_seed
from repro.soc.chip import Chip
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
    injected: Optional[Dict[str, int]]  #: injected faults by effect, in
    #: print order; ``None`` when the run had no fault plan
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
        if self.injected is not None:
            lines.append("injected faults: " + ", ".join(
                f"{count} {effect}"
                for effect, count in self.injected.items()))
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


#: One shard unit: (chip, integer seed, campaign, checkpoint or None).
ShardTask = Tuple[Chip, int, Campaign, Optional[CampaignCheckpoint]]


def _campaign_shard(task: ShardTask) -> List[ResultRow]:
    """Worker body: one campaign on a fresh executor, checkpointed.

    With a checkpoint the rows are saved (CSV first, manifest last)
    before they are returned, so the shard is durable the moment it
    finishes, whatever happens to the rest of the study.
    """
    chip, seed, campaign, checkpoint = task
    executor = CampaignExecutor(chip, seed=seed)
    executor.execute_campaign(campaign)
    rows = executor.store.rows()
    if checkpoint is not None:
        checkpoint.save(checkpoint.shard_token(chip.serial, campaign),
                        chip.serial, campaign, rows)
    return rows


@dataclass(frozen=True)
class ShardsOutcome:
    """The merged rows of :func:`execute_shards`, with what resume and
    supervision did to produce them."""

    store: ResultStore          #: rows in campaign order
    executed: int               #: shards run (and checkpointed) this call
    resumed: int                #: shards reloaded from the checkpoint
    failures: Tuple[UnitFailure, ...]   #: quarantined shards, in order
    supervision: SupervisorStats
    injected: Dict[str, int]    #: unit faults the map injected, by kind


def execute_shards(chip: Chip, seed: SeedLike, campaigns: Sequence[Campaign],
                   jobs: int = 1, options: RunOptions = RunOptions(),
                   checkpoint: Optional[CampaignCheckpoint] = None
                   ) -> ShardsOutcome:
    """Run one supervised shard per campaign, resuming from ``checkpoint``.

    Shards the checkpoint holds as completed are reloaded and shards it
    holds as quarantined resurface their typed failures; the rest go
    through :func:`~repro.experiments.common.map_units` and save
    themselves to the checkpoint as they finish. A shard that exhausts
    its retry budget is quarantined (and marked so in the checkpoint)
    instead of failing the study. Rows merge in campaign order,
    identical to a serial per-campaign loop at any ``jobs``.
    """
    base = resolve_seed(seed)
    campaigns = list(campaigns)
    rows: Dict[int, List[ResultRow]] = {}
    failures: Dict[int, UnitFailure] = {}
    if checkpoint is not None:
        for index, campaign in enumerate(campaigns):
            token = checkpoint.shard_token(chip.serial, campaign)
            if checkpoint.has(token):
                rows[index] = checkpoint.load_rows(token)
                continue
            failure = checkpoint.quarantined_failure(token)
            if failure is not None:
                failures[index] = replace(
                    failure, index=index, label=failure.label or campaign.name)
    resumed = len(rows)
    pending = [index for index in range(len(campaigns))
               if index not in rows and index not in failures]
    # The plan's unit indices are campaign indices; the map runs over
    # the pending shards only.
    plan = options.plan(units=len(campaigns))
    if plan is not None:
        options = replace(options, faults=plan.select_units(pending))
    outcome = map_units(
        _campaign_shard,
        [(chip, base, campaigns[index], checkpoint) for index in pending],
        jobs, options)
    for position, index in enumerate(pending):
        if outcome.values[position] is not None:
            rows[index] = outcome.values[position]
    for failure in outcome.failures:
        index = pending[failure.index]
        failures[index] = replace(failure, index=index,
                                  label=campaigns[index].name)
        if checkpoint is not None:
            checkpoint.mark_quarantined(
                checkpoint.shard_token(chip.serial, campaigns[index]),
                chip.serial, campaigns[index], failures[index])
    store = ResultStore()
    for index in sorted(rows):
        store.extend(rows[index])
    return ShardsOutcome(
        store=store, executed=len(rows) - resumed, resumed=resumed,
        failures=tuple(failures[index] for index in sorted(failures)),
        supervision=outcome.stats,
        injected={kind: outcome.injected(kind)
                  for kind in (UNIT_EXIT, UNIT_HANG, UNIT_POISON)})


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
    for the shards and bursts for the transport, a ``real`` seed worker
    exits, deadline hangs and poison units that replace those exits
    (see :meth:`~repro.core.faults.FaultSpec.plan`). ``resume_dir``
    checkpoints every campaign shard there as it finishes and resumes
    any that already finished (quarantined shards are skipped and their
    typed failures resurfaced) -- so rerunning an interrupted study with
    the same ``resume_dir`` finishes it.
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
    shards = execute_shards(
        chip, base, campaigns, jobs, replace(options, faults=plan),
        CampaignCheckpoint(resume_dir) if resume_dir else None)

    cloud = CloudStore()
    serial = transport == "serial"
    if serial:
        link = SerialLink(cloud, bit_error_rate=1e-4, max_retries=8,
                          seed=base, faults=plan)
    else:
        link = NetworkLink(cloud, loss_rate=0.05, ack_loss_rate=0.02,
                           max_retries=8, seed=base, faults=plan)
    ok, failed = ResultUploader(link).upload(shards.store)

    received = cloud.to_store()
    exactly_once = sorted(received.rows()) == sorted(shards.store.rows())
    if out_csv is not None:
        received.write_csv(out_csv)
    injected = None if plan is None else {
        "corrupted frames": link.stats.injected if serial else 0,
        "dropped packets": 0 if serial else link.stats.injected,
        "worker exits": shards.injected[UNIT_EXIT],
        "hangs": shards.injected[UNIT_HANG],
        "poison raises": shards.injected[UNIT_POISON]}
    return PipelineResult(
        chip=chip.serial,
        campaigns=len(campaigns),
        executed_rows=len(shards.store),
        cloud_rows=len(cloud),
        duplicates=cloud.duplicates,
        uploaded_ok=ok,
        upload_failed=failed,
        shards_executed=shards.executed,
        shards_resumed=shards.resumed,
        shards_quarantined=len(shards.failures),
        supervision=shards.supervision,
        failures=shards.failures,
        transport=transport,
        transport_stats=link.stats,
        injected=injected,
        exactly_once=exactly_once,
        store=received,
    )


#: Uniform entry point, matching the other experiment drivers.
run = run_pipeline
