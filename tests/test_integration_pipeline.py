"""End-to-end integration: Vmin study -> figures -> CSV -> reload.

These tests drive a whole Fig. 4 characterization study through the
framework's execution layer (:class:`CampaignExecutor`) and its Vmin
search, the way a downstream user would, and cross-check the outputs
against the persisted CSV and a lossy cloud upload.
"""

from typing import Dict, NamedTuple

import pytest

from repro.core.executor import CampaignExecutor
from repro.core.results import ResultStore
from repro.core.vmin import VminSearch
from repro.cpu.outcomes import RunOutcome
from repro.rand import substream
from repro.soc.xgene2 import build_reference_chips
from repro.workloads.spec import spec_suite


class ChipStudy(NamedTuple):
    """One part's study: safe Vmin per benchmark and every raw row."""

    vmin: Dict[str, float]
    store: ResultStore


def _characterize(chip):
    executor = CampaignExecutor(
        chip, seed=substream(1, f"framework-{chip.serial}"))
    results = VminSearch(executor, repetitions=5).search_suite(
        spec_suite(), cores=(chip.strongest_core(),))
    return ChipStudy({r.workload: r.safe_vmin_mv for r in results},
                     executor.store)


@pytest.fixture(scope="module")
def study():
    """serial -> study, each part characterized on its most robust core."""
    return {chip.serial: _characterize(chip)
            for chip in build_reference_chips(seed=1).values()}


def test_facade_reproduces_figure4_ranges(study):
    """The fleet study must land on the paper's Fig. 4 ranges."""
    expected = {"TTT-ref": (860.0, 885.0), "TFF-ref": (870.0, 885.0),
                "TSS-ref": (870.0, 900.0)}
    for serial, (lo, hi) in expected.items():
        values = study[serial].vmin.values()
        assert min(values) == lo, serial
        assert max(values) == hi, serial


def test_csv_roundtrip_preserves_study(study, tmp_path):
    """Persist one part's store to disk and reload it losslessly."""
    store = study["TTT-ref"].store
    path = tmp_path / "ttt.csv"
    count = store.write_csv(str(path))
    reloaded = ResultStore.from_csv_text(path.read_text())
    assert len(reloaded) == count == len(store)
    assert reloaded.rows() == store.rows()


def test_csv_outcomes_explain_vmin(study):
    """For each benchmark, every repetition at the reported safe Vmin is
    safe and the voltage below it holds the first failure."""
    table = study["TTT-ref"].vmin
    store = study["TTT-ref"].store
    for benchmark, safe_vmin in table.items():
        safe_rows = store.rows(benchmark=benchmark, voltage_mv=safe_vmin)
        assert safe_rows, benchmark
        assert all(RunOutcome(r.outcome).is_safe for r in safe_rows), benchmark
        below = [r.voltage_mv for r in store.rows(benchmark=benchmark)
                 if r.voltage_mv < safe_vmin]
        if below:
            failing = store.rows(benchmark=benchmark, voltage_mv=max(below))
            assert any(not RunOutcome(r.outcome).is_safe for r in failing), \
                benchmark


def test_results_survive_lossy_upload(study):
    """Figure 2's right-hand box: ship the study's raw rows to the cloud
    over a lossy network and re-derive the Vmin table from what arrived.
    At-least-once delivery + idempotent store = identical conclusions."""
    from repro.core.transport import CloudStore, NetworkLink, ResultUploader
    from repro.cpu.outcomes import RunOutcome

    source = study["TTT-ref"].store
    cloud = CloudStore()
    link = NetworkLink(cloud, loss_rate=0.25, ack_loss_rate=0.1,
                       max_retries=32, seed=9)
    ok, failed = ResultUploader(link).upload(source)
    assert failed == 0
    received = cloud.to_store()
    assert len(received) == len(source)

    # Re-derive each benchmark's safe Vmin from the uploaded rows alone.
    for benchmark, expected_vmin in study["TTT-ref"].vmin.items():
        safe = [v for v in {r.voltage_mv
                            for r in received.rows(benchmark=benchmark)}
                if all(RunOutcome(r.outcome).is_safe
                       for r in received.rows(benchmark=benchmark,
                                              voltage_mv=v))]
        assert min(safe) == expected_vmin, benchmark


def test_wall_time_reflects_recovery_cost(study):
    """Campaigns that descend into crashes accumulate recovery time:
    mean wall time of unsafe repetitions differs from clean ones."""
    store = study["TTT-ref"].store
    clean = [r.wall_time_s for r in store.rows()
             if r.outcome == RunOutcome.CORRECT.value]
    dirty = [r.wall_time_s for r in store.rows()
             if r.outcome in (RunOutcome.CRASH.value, RunOutcome.HANG.value)]
    assert clean and dirty
    assert set(dirty) != set(clean)
