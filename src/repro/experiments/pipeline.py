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

The parent checkpoints each shard the moment it settles -- its rows
when it succeeds, its quarantine when its last allowed failure is
charged -- so a study that is killed or interrupted keeps every shard
that was decided, and a rerun with the same checkpoint re-executes only
the rest, reproducing the same rows when it does.
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
    EncodedRows,
    NetworkLink,
    ResultUploader,
    SerialLink,
    TransportStats,
    encode_rows,
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


#: One shard unit: (chip, integer seed, campaign, encode its rows?).
ShardTask = Tuple[Chip, int, Campaign, bool]
#: A settled shard's rows, with their CSV records when it was encoded.
Shard = Tuple[List[ResultRow], Optional[EncodedRows]]


def _campaign_shard(task: ShardTask) -> Shard:
    """Worker body: one campaign on a fresh executor; returns its rows,
    encoded in the same process when ``encode`` is set."""
    chip, seed, campaign, encode = task
    executor = CampaignExecutor(chip, seed=seed)
    executor.execute_campaign(campaign)
    rows = executor.store.rows()
    return rows, encode_rows(rows) if encode else None


@dataclass(frozen=True)
class ShardsOutcome:
    """The merged rows of :func:`execute_shards`, with what resume and
    supervision did to produce them."""

    store: ResultStore          #: rows in campaign order
    #: each completed shard's CSV records, in campaign order; empty
    #: unless ``records`` was asked for
    records: Tuple[EncodedRows, ...]
    executed: int               #: shards run (and checkpointed) this call
    resumed: int                #: shards reloaded from the checkpoint
    failures: Tuple[UnitFailure, ...]   #: quarantined shards, in order
    supervision: SupervisorStats
    injected: Dict[str, int]    #: unit faults the map injected, by kind


def execute_shards(chip: Chip, seed: SeedLike, campaigns: Sequence[Campaign],
                   jobs: int = 1, options: RunOptions = RunOptions(),
                   checkpoint: Optional[CampaignCheckpoint] = None,
                   records: bool = False) -> ShardsOutcome:
    """Run one supervised shard per campaign, resuming from ``checkpoint``.

    Shards the checkpoint holds as completed are reloaded and shards it
    holds as quarantined resurface their typed failures; the rest go
    through :func:`~repro.experiments.common.map_units`, each
    checkpointed as it settles: its rows, or its quarantine once it
    exhausts its retry budget. Rows merge in campaign order, identical
    to a serial per-campaign loop at any ``jobs``.

    A shard's rows are encoded once, by the worker that built them, when
    the checkpoint or ``records`` (the outcome's
    :attr:`ShardsOutcome.records`) reads them; a reloaded shard is
    encoded here only for ``records``.
    """
    base = resolve_seed(seed)
    campaigns = list(campaigns)
    shards: Dict[int, Shard] = {}
    failures: Dict[int, UnitFailure] = {}

    def keep(index: int, outcome) -> None:
        if isinstance(outcome, UnitFailure):
            label = outcome.label or campaigns[index].name
            failures[index] = replace(outcome, index=index, label=label)
        else:
            shards[index] = outcome

    if checkpoint is not None:
        for index, campaign in enumerate(campaigns):
            saved = checkpoint.load(checkpoint.shard_token(chip.serial, campaign))
            if isinstance(saved, list):
                keep(index, (saved, encode_rows(saved) if records else None))
            elif saved is not None:
                keep(index, saved)
    resumed = len(shards)
    pending = [index for index in range(len(campaigns))
               if index not in shards and index not in failures]

    def settle(position: int, outcome) -> None:
        index = pending[position]
        keep(index, outcome)
        if checkpoint is not None:
            campaign = campaigns[index]
            token = checkpoint.shard_token(chip.serial, campaign)
            if index in failures:
                checkpoint.mark_quarantined(token, chip.serial, campaign,
                                            failures[index])
            else:
                checkpoint.save(token, chip.serial, campaign, outcome[1])

    # The plan's unit indices are campaign indices; the map runs over
    # the pending shards only.
    plan = options.plan(units=len(campaigns))
    if plan is not None:
        options = replace(options, faults=plan.select_units(pending))
    encode = records or checkpoint is not None
    outcome = map_units(
        _campaign_shard,
        [(chip, base, campaigns[index], encode) for index in pending],
        jobs, options, settle)
    store = ResultStore()
    for index in sorted(shards):
        store.extend(shards[index][0])
    return ShardsOutcome(
        store=store,
        records=tuple(shards[index][1] for index in sorted(shards))
        if records else (),
        executed=len(shards) - resumed, resumed=resumed,
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
    serial = transport == "serial"
    shards = execute_shards(
        chip, base, campaigns, jobs, replace(options, faults=plan),
        CampaignCheckpoint(resume_dir) if resume_dir else None,
        records=serial)

    cloud = CloudStore()
    if serial:
        link = SerialLink(cloud, bit_error_rate=1e-4, max_retries=8,
                          seed=base, faults=plan)
        records = (record for shard in shards.records
                   for record in shard.records())
    else:
        link = NetworkLink(cloud, loss_rate=0.05, ack_loss_rate=0.02,
                           max_retries=8, seed=base, faults=plan)
        records = None
    ok, failed = ResultUploader(link).upload(shards.store, records)

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
