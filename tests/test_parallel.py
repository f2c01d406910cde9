"""Determinism of the batched sampler and the process-parallel engine.

Three layers of guarantees, each locked down here:

- ``Chip.observe_runs``/``observe_run_block`` are draw-for-draw
  identical to looping the scalar ``observe_run`` with the same
  generator;
- ``execute_shards`` produces bit-identical result rows at any worker
  count, matching a serial per-campaign loop;
- the sharded experiment drivers (``run_figure4``, ``run_table1``)
  return the same numbers at any ``jobs`` value.
"""

import numpy as np
import pytest

from repro.core.campaign import CampaignPlan
from repro.core.executor import CampaignExecutor
from repro.errors import CampaignError
from repro.experiments.common import RunOptions, map_units
from repro.experiments.fig4_spec_vmin import run_figure4
from repro.experiments.pipeline import execute_shards
from repro.experiments.table1_weak_cells import _device_chunks, run_table1
from repro.rand import DEFAULT_SEED, resolve_seed
from repro.soc.chip import FAILURE_ONSET_BAND_MV, Chip
from repro.soc.corners import ProcessCorner
from repro.soc.topology import CoreId
from repro.workloads.spec import spec_suite

REPS = 64


def _chip(seed=7):
    return Chip(ProcessCorner.TTT, seed=seed)


@pytest.mark.parametrize("offset_mv", [
    pytest.param(+20.0, id="safe"),
    pytest.param(+3.0, id="onset-band"),
    pytest.param(-10.0, id="mid-depth"),
    pytest.param(-60.0, id="deep-crash"),
])
def test_observe_runs_matches_scalar_loop(offset_mv):
    chip = _chip()
    core = CoreId(0, 0)
    swing = 0.5
    voltage = chip.vmin_mv(core, swing, 2.4) + offset_mv

    rng_a = np.random.default_rng(1234)
    rng_b = np.random.default_rng(1234)
    batched = chip.observe_runs(core, swing, voltage, 2.4, n=REPS, rng=rng_a)
    loop = [chip.observe_run(core, swing, voltage, 2.4, rng=rng_b)
            for _ in range(REPS)]
    assert batched == loop
    # Both paths must also leave the generators in the same state.
    assert rng_a.random() == rng_b.random()


def test_observe_run_block_matches_nested_loop():
    chip = _chip()
    cores = (CoreId(0, 0), CoreId(1, 0), CoreId(2, 1))
    swing = 0.55
    # Pick a voltage where at least one core is inside the onset band.
    voltage = min(chip.vmin_mv(c, swing, 2.4) for c in cores) + 2.0
    rng_a = np.random.default_rng(42)
    rng_b = np.random.default_rng(42)
    codes = chip.observe_run_block(cores, swing, voltage, 2.4,
                                   repetitions=REPS, rng=rng_a)
    assert codes.shape == (REPS, len(cores))
    from repro.soc.chip import CODE_FROM_OUTCOME
    for rep in range(REPS):
        for col, core in enumerate(cores):
            outcome = chip.observe_run(core, swing, voltage, 2.4, rng=rng_b)
            assert CODE_FROM_OUTCOME[outcome] == codes[rep, col], (rep, col)
    assert rng_a.random() == rng_b.random()


def test_safe_cores_draw_nothing():
    chip = _chip()
    core = CoreId(0, 0)
    voltage = chip.vmin_mv(core, 0.5, 2.4) + FAILURE_ONSET_BAND_MV + 1.0
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state["state"]["state"]
    codes = chip.observe_run_block((core,), 0.5, voltage, 2.4,
                                   repetitions=REPS, rng=rng)
    assert not codes.any()
    assert rng.bit_generator.state["state"]["state"] == before


def _small_campaigns():
    plan = CampaignPlan()
    plan.add_workloads(spec_suite()[:4])
    plan.add_voltage_sweep(980.0, 840.0, 20.0, repetitions=3)
    return plan.build()


def _serial_reference(campaigns, seed):
    """Per-campaign serial loop: the semantics sharded execution mirrors.

    Returns each campaign's rows, in campaign order."""
    nested = []
    for campaign in campaigns:
        executor = CampaignExecutor(_chip(), seed=seed)
        executor.execute_campaign(campaign)
        nested.append(executor.store.rows())
    return nested


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_parallel_rows_identical_to_serial(jobs):
    campaigns = _small_campaigns()
    nested = _serial_reference(campaigns, seed=11)
    rows = execute_shards(_chip(), 11, campaigns, jobs).store.rows()
    assert rows == [row for shard in nested for row in shard]
    # Each campaign's rows -- its runs' outcomes and wall times -- are
    # the serial loop's rows for that campaign.
    for campaign, shard in zip(campaigns, nested):
        prefix = f"{_chip().serial}/{campaign.name}/"
        assert [row for row in rows if row.run_key.startswith(prefix)] \
            == shard


def test_parallel_execute_all_flattens_in_order():
    campaigns = _small_campaigns()
    rows = execute_shards(_chip(), 11, campaigns, 2).store.rows()
    nested = _serial_reference(campaigns, seed=11)
    assert [(row.run_key, row.repetition, row.outcome) for row in rows] == \
        [(row.run_key, row.repetition, row.outcome)
         for shard in nested for row in shard]


def test_map_units_preserves_order():
    assert map_units(str, [3, 1, 2], 1, RunOptions()).unwrap() \
        == ["3", "1", "2"]
    assert map_units(abs, [-5, -1, -3], 2, RunOptions()).unwrap() == [5, 1, 3]


def test_resolve_seed_contract():
    assert resolve_seed(None) == DEFAULT_SEED
    assert resolve_seed(17) == 17
    with pytest.raises(CampaignError):
        resolve_seed(np.random.default_rng(0))
    with pytest.raises(CampaignError):
        execute_shards(_chip(), 1, [], jobs=0)


def test_resolve_seed_rejects_negative_seeds():
    assert resolve_seed(0) == 0
    with pytest.raises(CampaignError, match="non-negative"):
        resolve_seed(-1)


def test_figure4_jobs_invariant():
    serial = run_figure4(seed=5, repetitions=2, jobs=1)
    sharded = run_figure4(seed=5, repetitions=2, jobs=2)
    assert serial.vmin_mv == sharded.vmin_mv
    assert serial.reports == sharded.reports


def test_table1_jobs_invariant():
    serial = run_table1(seed=5, sample_devices=6, regulate=False, jobs=1)
    sharded = run_table1(seed=5, sample_devices=6, regulate=False, jobs=3)
    assert serial.counts == sharded.counts
    assert serial.per_chip_totals == sharded.per_chip_totals
    assert serial.scrubs == sharded.scrubs


def test_device_chunks_cover_in_order():
    chunks = _device_chunks(10, 3)
    flat = [d for chunk in chunks for d in chunk]
    assert flat == list(range(10))
    assert _device_chunks(3, 8) == [(0,), (1,), (2,)]


def test_voltage_sweep_has_no_float_drift():
    plan = CampaignPlan()
    plan.add_workload(spec_suite()[0])
    plan.add_voltage_sweep(980.0, 970.0, 0.1, repetitions=1)
    voltages = [setup.voltage_mv for setup in plan.build()[0].setups()]
    assert len(voltages) == 101
    assert voltages[0] == 980.0
    assert voltages[-1] == 970.0
    # Every rung is exactly start - i*step: no accumulated error, so CSV
    # columns and RNG stream keys de-duplicate correctly.
    assert voltages == [980.0 - i * 0.1 for i in range(101)]


def test_experiment_registry_and_run_aliases():
    import repro.experiments as experiments
    assert set(experiments.REGISTRY) == {
        "fig4", "fig5", "fig6", "fig7", "table1",
        "fig8a", "fig8b", "fig9", "stencil", "multiprocess",
    }
    for name, driver in experiments.REGISTRY.items():
        assert callable(driver), name
    from repro.experiments import fig4_spec_vmin, table1_weak_cells
    assert fig4_spec_vmin.run is run_figure4
    assert table1_weak_cells.run is run_table1
    assert experiments.REGISTRY["fig4"] is run_figure4
