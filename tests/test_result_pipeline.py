"""The hardened result pipeline: global identity, fault equivalence,
checkpoint/resume.

The acceptance property of the fault harness: a pipeline run under *any*
seeded :class:`FaultPlan` -- real worker exits, transport
corruption/loss bursts -- and across a study interruption
converges to a cloud store bit-identical to the clean ``jobs=1`` run.
"""

import os

import pytest

from repro.core.campaign import CampaignPlan
from repro.core.checkpoint import CampaignCheckpoint
from repro.core.executor import CampaignExecutor
from repro.core.faults import UNIT_POISON, FaultPlan, FaultSpec
from repro.core.transport import CloudStore, NetworkLink, ResultUploader, SerialLink
from repro.experiments import pipeline
from repro.experiments.common import RunOptions
from repro.experiments.pipeline import execute_shards, run_pipeline
from repro.experiments.table1_weak_cells import run_table1
from repro.soc.chip import Chip
from repro.soc.corners import ProcessCorner
from repro.workloads.spec import spec_suite

SEED = 11


def _chip():
    return Chip(ProcessCorner.TTT, seed=7)


def _campaigns(benchmarks=3):
    plan = CampaignPlan()
    plan.add_workloads(spec_suite()[:benchmarks])
    plan.add_voltage_sweep(980.0, 920.0, 20.0, repetitions=2)
    return plan.build()


def _clean_rows(campaigns):
    return execute_shards(_chip(), SEED, campaigns).store.rows()


# ----------------------------------------------------------------------
# Global run identity
# ----------------------------------------------------------------------
def test_executor_stamps_global_run_key():
    chip = _chip()
    campaign = _campaigns(benchmarks=1)[0]
    executor = CampaignExecutor(chip, seed=SEED)
    executor.execute_campaign(campaign)
    for row in executor.store.rows():
        assert row.run_key.startswith(f"{chip.serial}/{campaign.name}/")
    # One key per run, shared by its repetitions.
    keys = {row.run_id: row.run_key for row in executor.store.rows()}
    assert len(set(keys.values())) == len(campaign.runs)


def test_colliding_run_ids_from_two_campaigns_both_reach_cloud():
    """Regression for the pipeline-wide bug: every campaign restarts its
    run_id counter, so cloud dedup on (run_id, repetition) dropped all
    but the first campaign."""
    campaigns = _campaigns(benchmarks=2)
    store = execute_shards(_chip(), SEED, campaigns).store
    run_ids = [row.run_id for row in store.rows()]
    assert len(set(run_ids)) < len(store)          # ids do collide...
    cloud = CloudStore()
    link = NetworkLink(cloud, loss_rate=0.0, ack_loss_rate=0.0, seed=SEED)
    ok, failed = ResultUploader(link).upload(store)
    assert failed == 0
    assert len(cloud) == len(store)                # ...yet nothing is lost
    assert cloud.duplicates == 0


# ----------------------------------------------------------------------
# Fault equivalence: engine layer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fault_seed", [1, 2, 3])
def test_faulted_engine_rows_bit_identical_to_clean_run(fault_seed):
    campaigns = _campaigns()
    clean = _clean_rows(campaigns)
    plan = FaultPlan.random(fault_seed, shards=len(campaigns))
    shards = execute_shards(_chip(), SEED, campaigns, 2,
                            RunOptions(faults=plan))
    assert shards.store.rows() == clean
    # The plan actually did something, or the test proves nothing.
    assert plan.unit_exits


# ----------------------------------------------------------------------
# Fault equivalence: full pipeline through both transports
# ----------------------------------------------------------------------
@pytest.mark.parametrize("transport", ["serial", "network"])
def test_faulted_transport_converges_to_clean_contents(transport):
    campaigns = _campaigns()
    clean = _clean_rows(campaigns)
    plan = FaultPlan.random(5, shards=len(campaigns), rows=len(clean),
                            max_depth=3)
    shards = execute_shards(_chip(), SEED, campaigns, 2,
                            RunOptions(faults=plan))
    cloud = CloudStore()
    if transport == "serial":
        link = SerialLink(cloud, bit_error_rate=0.0, max_retries=4,
                          seed=SEED, faults=plan)
    else:
        link = NetworkLink(cloud, loss_rate=0.0, ack_loss_rate=0.0,
                           max_retries=4, seed=SEED, faults=plan)
    ok, failed = ResultUploader(link).upload(shards.store)
    assert failed == 0
    # bursts were actually placed
    assert any(b.depth >= 1 for b in plan.corruption_bursts + plan.loss_bursts)
    assert sorted(cloud.to_store().rows()) == sorted(clean)


def test_run_pipeline_driver_fault_equivalence():
    clean = run_pipeline(seed=9, benchmarks=2, repetitions=2, jobs=1)
    faulted = run_pipeline(seed=9, benchmarks=2, repetitions=2, jobs=3,
                           options=RunOptions(faults=FaultSpec(random=77)),
                           transport="serial")
    assert clean.exactly_once and faulted.exactly_once
    assert faulted.store.rows() == clean.store.rows()
    assert faulted.store.to_csv_text() == clean.store.to_csv_text()
    assert faulted.injected is not None and sum(faulted.injected.values()) > 0
    assert clean.injected is None


# ----------------------------------------------------------------------
# Checkpoint/resume through the engine
# ----------------------------------------------------------------------
def _interrupt_at(monkeypatch, campaign_index):
    """Make the shard of the ``campaign_index``-th campaign to start raise
    KeyboardInterrupt, as Ctrl-C would; earlier shards run normally.

    Inline (``jobs=1``) only: supervision catches ``Exception``, so the
    interrupt escapes the whole study."""
    started = []
    real_shard = pipeline._campaign_shard

    def shard(task):
        started.append(task)
        if len(started) == campaign_index + 1:
            raise KeyboardInterrupt
        return real_shard(task)
    monkeypatch.setattr(pipeline, "_campaign_shard", shard)


def test_interrupted_study_resumes_without_reexecution(tmp_path, monkeypatch):
    campaigns = _campaigns()
    clean = _clean_rows(campaigns)
    checkpoint = CampaignCheckpoint(str(tmp_path))
    _interrupt_at(monkeypatch, 1)
    with pytest.raises(KeyboardInterrupt):
        execute_shards(_chip(), SEED, campaigns, 1, checkpoint=checkpoint)
    monkeypatch.undo()
    assert len(list(tmp_path.glob("*.json"))) == 1   # one shard manifest

    resumed = execute_shards(_chip(), SEED, campaigns, 2,
                             checkpoint=checkpoint)
    assert resumed.resumed == 1
    assert resumed.executed == len(campaigns) - 1
    assert resumed.store.rows() == clean          # bit-identical finish


def test_resumed_study_faults_the_same_campaigns(tmp_path, monkeypatch):
    """Regression: a resumed study applied the plan's unit indices to
    the positions of the pending shards, so once shard 0 was resumed the
    poison meant for campaign 2 quarantined campaign 3 instead."""
    campaigns = _campaigns(benchmarks=4)
    options = RunOptions(faults=FaultPlan(poison_units=(2,)), max_retries=0)
    whole = execute_shards(_chip(), SEED, campaigns, 1, options)
    checkpoint = CampaignCheckpoint(str(tmp_path))
    _interrupt_at(monkeypatch, 1)
    with pytest.raises(KeyboardInterrupt):
        execute_shards(_chip(), SEED, campaigns, 1, options, checkpoint)
    monkeypatch.undo()

    resumed = execute_shards(_chip(), SEED, campaigns, 1, options, checkpoint)
    assert resumed.resumed == 1
    for outcome in (whole, resumed):
        assert [(f.index, f.label) for f in outcome.failures] == \
            [(2, campaigns[2].name)]
    assert resumed.store.rows() == whole.store.rows()


def test_killed_study_does_not_rerun_its_quarantined_shard(tmp_path,
                                                          monkeypatch):
    """Regression: a shard's quarantine was checkpointed only after the
    whole map returned, so a study killed after its poisoned shard was
    quarantined ran that shard again on resume."""
    campaigns = _campaigns()
    options = RunOptions(faults=FaultPlan(poison_units=(0,)), max_retries=0)
    checkpoint = CampaignCheckpoint(str(tmp_path))
    # Shard 0 is quarantined without running, so the second shard to
    # start is shard 2.
    _interrupt_at(monkeypatch, 1)
    with pytest.raises(KeyboardInterrupt):
        execute_shards(_chip(), SEED, campaigns, 1, options, checkpoint)
    monkeypatch.undo()
    assert len(list(tmp_path.glob("*.json"))) == 2   # shards 0 and 1

    resumed = execute_shards(_chip(), SEED, campaigns, 1, options, checkpoint)
    assert (resumed.resumed, resumed.executed) == (1, 1)
    assert resumed.supervision.attempts == 1         # shard 2's only
    assert resumed.injected[UNIT_POISON] == 0        # shard 0: none
    assert [(f.index, f.label) for f in resumed.failures] == \
        [(0, campaigns[0].name)]
    assert resumed.store.rows() == _clean_rows(campaigns[1:])


def test_fully_checkpointed_study_executes_nothing(tmp_path):
    campaigns = _campaigns(benchmarks=2)
    checkpoint = CampaignCheckpoint(str(tmp_path))
    first = execute_shards(_chip(), SEED, campaigns, 2, checkpoint=checkpoint)
    assert first.executed == len(campaigns)

    second = execute_shards(_chip(), SEED, campaigns, 2, checkpoint=checkpoint)
    assert second.executed == 0
    assert second.resumed == len(campaigns)
    assert second.store.rows() == first.store.rows()


def test_interrupted_pipeline_keeps_every_finished_shard(tmp_path, monkeypatch):
    """Regression: checkpoints were written only after every shard had
    returned, so a real interruption persisted nothing. Each shard now
    saves itself as it finishes."""
    kwargs = dict(seed=9, benchmarks=4, repetitions=2, jobs=1)
    clean = run_pipeline(**kwargs)
    checkpoint_dir = str(tmp_path)
    _interrupt_at(monkeypatch, 2)
    with pytest.raises(KeyboardInterrupt):
        run_pipeline(resume_dir=checkpoint_dir, **kwargs)
    monkeypatch.undo()
    assert len(list(tmp_path.glob("*.json"))) == 2   # two shard manifests

    finished = run_pipeline(resume_dir=checkpoint_dir, **kwargs)
    assert finished.shards_resumed == 2
    assert finished.shards_executed == 2
    assert finished.exactly_once
    assert finished.store.to_csv_text() == clean.store.to_csv_text()


def test_run_pipeline_interrupt_and_resume(tmp_path):
    """The --faults/--resume CLI flow end to end: a faulted study killed
    after its first shard finished, resumed, lands the clean run's exact
    CSV."""
    clean = run_pipeline(seed=9, benchmarks=2, repetitions=2, jobs=1)

    # Shard 0's worker exits once. Deleting shard 1's manifest afterwards
    # leaves exactly what a kill after shard 0 finished leaves: the
    # manifest is each shard's commit point.
    checkpoint_dir = str(tmp_path)
    run_pipeline(seed=9, benchmarks=2, repetitions=2, jobs=2,
                 resume_dir=checkpoint_dir,
                 options=RunOptions(faults=FaultPlan(unit_exits=((0, 1),))))
    campaigns = pipeline._declare_campaigns(2, 2, 980.0, 880.0, 20.0)
    checkpoint = CampaignCheckpoint(checkpoint_dir)
    os.remove(checkpoint._manifest_path(checkpoint.shard_token(
        clean.chip, campaigns[1])))

    finished = run_pipeline(seed=9, benchmarks=2, repetitions=2, jobs=2,
                            resume_dir=checkpoint_dir)
    assert finished.shards_resumed >= 1
    assert finished.exactly_once
    assert finished.store.to_csv_text() == clean.store.to_csv_text()


# ----------------------------------------------------------------------
# Sharded experiment drivers under injected faults
# ----------------------------------------------------------------------
def test_table1_faults_invariant():
    clean = run_table1(seed=5, sample_devices=6, regulate=False, jobs=1)
    faulted = run_table1(seed=5, sample_devices=6, regulate=False, jobs=3,
                         options=RunOptions(faults=FaultSpec(random=21)))
    assert clean.counts == faulted.counts
    assert clean.per_chip_totals == faulted.per_chip_totals
    assert clean.scrubs == faulted.scrubs
