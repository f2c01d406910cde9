"""Supervised execution: real worker-crash/hang/poison tolerance.

The acceptance property: a supervised run under any seeded real-fault
plan -- worker ``os._exit``, deadline-exceeding hangs, poison
exceptions -- converges to results bit-identical to the clean serial
run, with quarantined units enumerated deterministically as typed
:class:`UnitFailure` records at any worker count, and no raw worker
traceback escaping to the caller.
"""

import multiprocessing
import os
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.campaign import CampaignPlan
from repro.core.checkpoint import CampaignCheckpoint
from repro.core.faults import UNIT_EXIT, UNIT_HANG, UNIT_POISON, FaultPlan
from repro.core.supervisor import (
    CRASH,
    HANG,
    POISON,
    SupervisedPool,
    UnitFailure,
)
from repro.core.transport import encode_rows
from repro.errors import SupervisionError
from repro.experiments.common import RunOptions, map_units
from repro.experiments.pipeline import execute_shards
from repro.soc.chip import Chip
from repro.soc.corners import ProcessCorner
from repro.workloads.spec import spec_suite

SEED = 11

#: The CI supervisor-stress job runs this suite at --jobs 4 (default).
STRESS_JOBS = int(os.environ.get("REPRO_SUPERVISOR_JOBS", "4"))


def _square(x):
    return x * x


def _slow_square(x):
    time.sleep(0.2)
    return x * x


#: The exact tuple the old engine used as its kill sentinel (the module
#: that defined it is gone).
LEGACY_SENTINEL = ("repro.core" ".parallel:unit-killed",)


def _legacy_sentinel(x):
    return LEGACY_SENTINEL


def _raise_on_three(x):
    if x == 3:
        raise ValueError("unit is poisonous")
    return x * x


def _chip():
    return Chip(ProcessCorner.TTT, seed=7)


def _campaigns(benchmarks=3):
    plan = CampaignPlan()
    plan.add_workloads(spec_suite()[:benchmarks])
    plan.add_voltage_sweep(980.0, 920.0, 20.0, repetitions=2)
    return plan.build()


def _real_plan():
    """Exit + hang + poison: the acceptance-criteria fault trio."""
    return FaultPlan(unit_exits=((0, 1),), unit_hangs=((1, 1),),
                     poison_units=(2,), hang_seconds=0.2)


@pytest.fixture
def no_worker_can_start(monkeypatch):
    """Every ``Process.start()`` raises, as when the OS refuses a fork."""
    def refuse(self):
        raise OSError("no worker processes available")
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)


# ----------------------------------------------------------------------
# Worker messages are tagged by position: no value aliases a failure
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2])
def test_unit_legitimately_returning_old_sentinel_value(jobs):
    """Regression: the old engine compared results by value against
    UNIT_KILLED, so a unit returning an equal tuple retried forever."""
    outcome = map_units(_legacy_sentinel, [0, 1, 2], jobs,
                        RunOptions(faults=FaultPlan(unit_exits=((0, 1),))))
    assert outcome.unwrap() == [LEGACY_SENTINEL] * 3
    assert outcome.injected(UNIT_EXIT) == 1


# ----------------------------------------------------------------------
# Real-fault convergence, jobs-invariance
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_real_fault_plan_converges_bit_identical(jobs):
    plan = _real_plan()
    outcome = SupervisedPool(jobs=jobs).map(
        _square, list(range(6)), faults=plan)
    assert outcome.values == (0, 1, None, 9, 16, 25)
    assert [(f.index, f.kind) for f in outcome.failures] == [(2, POISON)]
    assert outcome.failures[0].attempts == 4   # 1 + default max_retries
    assert outcome.stats.crashes == 1
    assert outcome.stats.hangs == 1


def test_quarantine_list_is_jobs_invariant():
    plan = FaultPlan(unit_exits=((1, 1),), poison_units=(0, 4),
                     hang_seconds=0.2)
    signatures = []
    for jobs in (1, 2, 4):
        outcome = SupervisedPool(jobs=jobs).map(
            _square, list(range(6)), faults=plan)
        signatures.append((outcome.values,
                           tuple((f.index, f.kind, f.attempts)
                                 for f in outcome.failures)))
    assert signatures[0] == signatures[1] == signatures[2]
    assert signatures[0][1] == ((0, POISON, 4), (4, POISON, 4))


def test_one_exit_charges_one_crash_to_its_unit_only():
    """A single injected worker exit costs its own unit one charged crash
    and no sibling anything; exactly one worker is replaced, and every
    unit still completes."""
    plan = FaultPlan(unit_exits=((1, 1),))
    outcome = SupervisedPool(jobs=4).map(
        _square, list(range(6)), faults=plan)
    assert outcome.values == (0, 1, 4, 9, 16, 25)
    assert outcome.failures == ()
    losses = [r for r in outcome.ledger if r.outcome != "ok"]
    assert [(r.index, r.attempt, r.outcome, r.fault) for r in losses] \
        == [(1, 0, CRASH, UNIT_EXIT)]
    assert "exitcode 13" in losses[0].detail
    assert sorted(r.index for r in outcome.ledger if r.outcome == "ok") \
        == list(range(6))
    assert outcome.stats.rebuilds == 1
    assert outcome.stats.crashes == 1


def test_ledger_is_jobs_invariant_and_every_loss_is_charged():
    """One exit, one hang past a 0.5 s deadline, one poison unit: the
    ledger's (index, attempt, outcome, fault) records and the stats
    summed from them (bar worker rebuilds) are the same at any worker
    count, and every loss is charged: a unit's attempts run 0, 1, 2, ...
    with no gap. Units take 0.2 s, so siblings are in flight when the
    hang's deadline expires."""
    plan = FaultPlan(unit_exits=((0, 1),), unit_hangs=((1, 1),),
                     poison_units=(2,), hang_seconds=5.0)
    ledgers, stats = [], []
    for jobs in (1, 2, 4):
        outcome = SupervisedPool(jobs=jobs, unit_timeout=0.5).map(
            _slow_square, list(range(8)), faults=plan)
        for index in range(8):
            attempts = sorted(r.attempt for r in outcome.ledger
                              if r.index == index)
            assert attempts == list(range(len(attempts)))
        ledgers.append(sorted((r.index, r.attempt, r.outcome, r.fault)
                              for r in outcome.ledger))
        stats.append(replace(outcome.stats, rebuilds=0))
    assert ledgers[0] == ledgers[1] == ledgers[2]
    assert stats[0] == stats[1] == stats[2]
    assert (0, 0, CRASH, UNIT_EXIT) in ledgers[0]
    assert (1, 0, HANG, UNIT_HANG) in ledgers[0]
    assert [r[3] for r in ledgers[0] if r[0] == 2] == [UNIT_POISON] * 4
    assert (stats[0].attempts, stats[0].retries) == (13, 5)
    assert (stats[0].crashes, stats[0].hangs, stats[0].poisoned,
            stats[0].quarantined) == (1, 1, 4, 1)


# ----------------------------------------------------------------------
# Typed failure reporting (no raw tracebacks)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2])
def test_map_units_raises_typed_supervision_error(jobs):
    with pytest.raises(SupervisionError) as excinfo:
        map_units(_raise_on_three, [1, 2, 3, 4], jobs, RunOptions()).unwrap()
    failures = excinfo.value.failures
    assert [(f.index, f.kind) for f in failures] == [(2, POISON)]
    assert "ValueError" in failures[0].detail
    message = str(excinfo.value)
    assert "BrokenProcessPool" not in message
    assert "Traceback" not in message


def test_max_retries_bounds_the_budget():
    plan = FaultPlan(unit_exits=((0, 1),))
    outcome = SupervisedPool(jobs=2, max_retries=0).map(
        _square, [0, 1, 2], faults=plan)
    assert outcome.values == (None, 1, 4)
    assert [(f.index, f.kind, f.attempts)
            for f in outcome.failures] == [(0, CRASH, 1)]


def test_attempt_ledger_records_charged_failures():
    plan = _real_plan()
    outcome = SupervisedPool(jobs=2).map(
        _square, list(range(4)), faults=plan)
    charged = [(r.index, r.outcome) for r in outcome.ledger
               if r.outcome != "ok"]
    assert (0, CRASH) in charged
    assert (1, HANG) in charged
    assert sum(1 for index, kind in charged
               if index == 2 and kind == POISON) == 4
    completed = {r.index for r in outcome.ledger if r.outcome == "ok"}
    assert completed == {0, 1, 3}


# ----------------------------------------------------------------------
# The settle hook: each unit settles once, in the parent
# ----------------------------------------------------------------------
class _HookFailed(Exception):
    pass


def _started_at(x):
    started = time.time()
    time.sleep(0.05)
    return started


@pytest.mark.parametrize("jobs", [1, 2])
def test_settle_hook_runs_once_per_unit_in_the_parent(jobs):
    calls = []
    outcome = SupervisedPool(jobs=jobs).map(
        _square, list(range(6)), faults=_real_plan(),
        settle=lambda index, value: calls.append((index, value, os.getpid())))
    assert sorted(index for index, _, _ in calls) == list(range(6))
    assert {pid for _, _, pid in calls} == {os.getpid()}
    settled = {index: value for index, value, _ in calls}
    assert isinstance(settled[2], UnitFailure)
    assert (settled[2].kind, settled[2].attempts) == (POISON, 4)
    assert outcome.values == tuple(
        None if isinstance(value, UnitFailure) else value
        for _, value in sorted(settled.items()))
    assert outcome.failures == tuple(
        value for _, value in sorted(settled.items())
        if isinstance(value, UnitFailure))


@pytest.mark.parametrize("jobs", [1, 2])
def test_settle_hook_exception_propagates_uncharged(jobs):
    calls = []

    def settle(index, value):
        calls.append((index, value))
        if index == 1:
            raise _HookFailed(index)
    with pytest.raises(_HookFailed):
        SupervisedPool(jobs=jobs).map(_square, list(range(4)), settle=settle)
    # Charged, the unit would have been retried and settled again.
    assert [call for call in calls if call[0] == 1] == [(1, 1)]
    assert multiprocessing.active_children() == []


def test_worker_gets_its_next_unit_before_the_hook_runs():
    hooks = []

    def settle(index, value):
        if not hooks:
            time.sleep(0.5)
        hooks.append(time.time())
    outcome = SupervisedPool(jobs=2).map(_started_at, [0, 1, 2],
                                         settle=settle)
    # Unit 2 is queued behind the first two: it starts on the first
    # worker to return, while that worker's unit is still settling.
    assert outcome.values[2] < hooks[0]


# ----------------------------------------------------------------------
# Hang detection: the deadline really terminates a wedged worker
# ----------------------------------------------------------------------
def test_deadline_terminates_a_really_hung_worker():
    plan = FaultPlan(unit_hangs=((1, 1),), hang_seconds=30.0)
    start = time.monotonic()
    outcome = SupervisedPool(jobs=2, unit_timeout=0.5).map(
        _square, [0, 1, 2], faults=plan)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0     # nowhere near the 30 s sleep
    assert outcome.values == (0, 1, 4)
    assert outcome.failures == ()
    assert outcome.stats.hangs == 1
    assert outcome.stats.rebuilds >= 1


# ----------------------------------------------------------------------
# Graceful degradation when no worker can be started
# ----------------------------------------------------------------------
def test_degrades_to_inline_serial_when_pool_unbuildable(no_worker_can_start):
    outcome = SupervisedPool(jobs=4).map(_square, [1, 2, 3])
    assert outcome.values == (1, 4, 9)
    assert outcome.failures == ()
    assert outcome.stats.degraded


def test_degraded_inline_still_honors_the_injected_plan(no_worker_can_start):
    plan = _real_plan()
    outcome = SupervisedPool(jobs=4).map(
        _square, list(range(6)), faults=plan)
    assert outcome.values == (0, 1, None, 9, 16, 25)
    assert [(f.index, f.kind) for f in outcome.failures] == [(2, POISON)]
    assert outcome.stats.degraded
    assert (outcome.stats.crashes, outcome.stats.hangs) == (1, 1)


# ----------------------------------------------------------------------
# Property: any seeded real-fault plan converges (inline reference)
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), units=st.integers(1, 8),
       poison_rate=st.sampled_from([0.0, 0.3, 0.7]))
def test_any_seeded_real_plan_converges_inline(seed, units, poison_rate):
    plan = FaultPlan.random_real(seed, units, poison_rate=poison_rate)
    outcome = SupervisedPool(jobs=1).map(
        _square, list(range(units)), faults=plan)
    poisoned = set(plan.poison_units)
    for index in range(units):
        if index in poisoned:
            assert outcome.values[index] is None
        else:
            assert outcome.values[index] == index * index
    assert tuple(f.index for f in outcome.failures) == tuple(sorted(poisoned))
    assert all(f.kind == POISON for f in outcome.failures)
    # Deterministic: the same plan replays to the same outcome.
    again = SupervisedPool(jobs=1).map(
        _square, list(range(units)), faults=plan)
    assert again.values == outcome.values
    assert again.failures == outcome.failures


# ----------------------------------------------------------------------
# Campaign engine: the ISSUE's acceptance criterion end to end
# ----------------------------------------------------------------------
def test_campaign_study_under_real_faults_matches_clean_serial():
    """--jobs 4 study under exit+hang+poison: surviving shards
    bit-identical to the clean serial run, poisoned shard quarantined as
    a typed UnitFailure, nothing raw escaping."""
    campaigns = _campaigns()
    clean = execute_shards(_chip(), SEED,
                           [c for i, c in enumerate(campaigns) if i != 2])
    study = execute_shards(_chip(), SEED, campaigns, 4,
                           RunOptions(faults=_real_plan()))
    assert study.store.rows() == clean.store.rows()
    prefix = f"{_chip().serial}/{campaigns[2].name}/"
    assert not [r for r in study.store.rows() if r.run_key.startswith(prefix)]
    assert len(study.failures) == 1
    failure = study.failures[0]
    assert isinstance(failure, UnitFailure)
    assert (failure.index, failure.kind) == (2, POISON)
    assert failure.label == campaigns[2].name
    assert study.supervision.rebuilds >= 1
    assert study.supervision.crashes >= 1
    assert study.supervision.quarantined == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_campaign_quarantine_is_jobs_invariant(jobs):
    campaigns = _campaigns()
    options = RunOptions(faults=_real_plan())
    study = execute_shards(_chip(), SEED, campaigns, jobs, options)
    reference = execute_shards(_chip(), SEED, campaigns, 4, options)
    assert study.store.rows() == reference.store.rows()
    assert [(f.index, f.kind, f.attempts, f.label) for f in study.failures] \
        == [(f.index, f.kind, f.attempts, f.label)
            for f in reference.failures]


# ----------------------------------------------------------------------
# Checkpoint/resume past quarantined shards
# ----------------------------------------------------------------------
def _shard_counts(checkpoint, campaigns):
    """(completed, quarantined) shards of ``campaigns`` in ``checkpoint``."""
    loaded = [checkpoint.load(checkpoint.shard_token(_chip().serial, c))
              for c in campaigns]
    return (sum(isinstance(shard, list) for shard in loaded),
            sum(isinstance(shard, UnitFailure) for shard in loaded))


def test_resume_skips_quarantined_shards(tmp_path):
    campaigns = _campaigns()
    checkpoint = CampaignCheckpoint(str(tmp_path))
    first = execute_shards(_chip(), SEED, campaigns, 2,
                           RunOptions(faults=FaultPlan(poison_units=(1,))),
                           checkpoint)
    assert len(first.failures) == 1
    assert _shard_counts(checkpoint, campaigns) == (2, 1)

    resumed = execute_shards(_chip(), SEED, campaigns, 2,
                             checkpoint=checkpoint)
    assert resumed.resumed == 2
    assert resumed.executed == 0             # nothing re-executed
    assert len(resumed.failures) == 1        # the quarantine resurfaces
    assert resumed.failures[0].kind == POISON
    assert resumed.failures[0].label == campaigns[1].name
    assert resumed.store.rows() == first.store.rows()


def test_interrupted_study_resumes_past_quarantined_shard(tmp_path):
    campaigns = _campaigns()
    checkpoint = CampaignCheckpoint(str(tmp_path))
    execute_shards(_chip(), SEED, campaigns, 2,
                   RunOptions(faults=FaultPlan(poison_units=(0,))),
                   checkpoint)
    # Without shard 2's manifest -- each shard's commit point -- the
    # checkpoint is what a kill after shard 1 finished leaves behind.
    os.remove(checkpoint._manifest_path(
        checkpoint.shard_token(_chip().serial, campaigns[2])))
    assert _shard_counts(checkpoint, campaigns) == (1, 1)

    finished = execute_shards(_chip(), SEED, campaigns, 2,
                              checkpoint=checkpoint)
    clean = execute_shards(_chip(), SEED, campaigns[1:])
    assert finished.store.rows() == clean.store.rows()
    assert (finished.resumed, finished.executed) == (1, 1)
    assert len(finished.failures) == 1
    assert finished.failures[0].index == 0


def test_checkpoint_quarantine_manifest_roundtrip(tmp_path):
    campaigns = _campaigns(benchmarks=1)
    checkpoint = CampaignCheckpoint(str(tmp_path))
    chip = _chip()
    token = checkpoint.shard_token(chip.serial, campaigns[0])
    failure = UnitFailure(index=0, kind=POISON, attempts=4,
                          detail="PoisonError('injected')")
    checkpoint.mark_quarantined(token, chip.serial, campaigns[0], failure)
    loaded = checkpoint.load(token)          # quarantined != completed
    assert isinstance(loaded, UnitFailure)
    assert (loaded.kind, loaded.attempts) == (POISON, 4)
    assert loaded.label == campaigns[0].name
    assert _shard_counts(checkpoint, campaigns) == (0, 1)

    # A later successful save promotes the shard to completed...
    checkpoint.save(token, chip.serial, campaigns[0], encode_rows([]))
    assert checkpoint.load(token) == []
    # ...and a quarantine mark never demotes a completed shard.
    checkpoint.mark_quarantined(token, chip.serial, campaigns[0], failure)
    assert checkpoint.load(token) == []


# ----------------------------------------------------------------------
# Stress: the real-fault equivalence suite the CI job runs at --jobs 4
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("fault_seed", [1, 2, 3])
def test_real_fault_equivalence_stress(fault_seed):
    units = 10
    plan = FaultPlan.random_real(fault_seed, units, poison_rate=0.2)
    reference = SupervisedPool(jobs=1).map(
        _square, list(range(units)), faults=plan)
    outcome = SupervisedPool(jobs=STRESS_JOBS, unit_timeout=30.0).map(
        _square, list(range(units)), faults=plan)
    assert outcome.values == reference.values
    assert tuple((f.index, f.kind, f.attempts) for f in outcome.failures) \
        == tuple((f.index, f.kind, f.attempts) for f in reference.failures)
    assert plan.unit_exits or plan.unit_hangs or plan.poison_units


@pytest.mark.slow
def test_campaign_stress_real_faults_at_jobs_4():
    campaigns = _campaigns()
    plan = FaultPlan.random_real(9, units=len(campaigns), poison_rate=0.0,
                                 hang_seconds=0.2)
    clean = execute_shards(_chip(), SEED, campaigns)
    study = execute_shards(_chip(), SEED, campaigns, STRESS_JOBS,
                           RunOptions(unit_timeout=60.0, faults=plan))
    assert study.store.rows() == clean.store.rows()
    assert study.failures == ()
    assert plan.unit_exits or plan.unit_hangs
