"""Campaign checkpoint/resume persistence (repro.core.checkpoint)."""

import csv
import hashlib
import io
import json
import os

import numpy as np
import pytest

from repro.core.campaign import CampaignPlan
from repro.core.checkpoint import CampaignCheckpoint
from repro.core.results import RESULT_FIELDS, ResultRow, ResultStore
from repro.core.transport import encode_rows
from repro.errors import CampaignError
from repro.workloads.spec import spec_suite


def _campaigns(benchmarks=2, stop_mv=940.0):
    plan = CampaignPlan()
    plan.add_workloads(spec_suite()[:benchmarks])
    plan.add_voltage_sweep(980.0, stop_mv, 20.0, repetitions=2)
    return plan.build()


def _rows(campaign, chip_serial="chip-X"):
    rows = []
    for run in campaign.runs:
        for rep in range(run.setup.repetitions):
            rows.append(ResultRow(
                run_id=run.run_id, benchmark=campaign.name, suite="spec2006",
                voltage_mv=run.setup.voltage_mv, freq_ghz=run.setup.freq_ghz,
                cores="0", repetition=rep, outcome="correct",
                verdict="completed", corrected_errors=0,
                uncorrected_errors=0, wall_time_s=0.125 + rep,
                run_key=run.global_key(chip_serial)))
    return rows


def test_token_is_stable_and_identity_sensitive():
    first, second = _campaigns()
    token = CampaignCheckpoint.shard_token("chip-X", first)
    assert token == CampaignCheckpoint.shard_token("chip-X", first)
    # Different chip, different campaign, different setups: all distinct.
    assert token != CampaignCheckpoint.shard_token("chip-Y", first)
    assert token != CampaignCheckpoint.shard_token("chip-X", second)
    shorter = _campaigns(stop_mv=960.0)[0]
    assert token != CampaignCheckpoint.shard_token("chip-X", shorter)


def test_save_then_load_roundtrips_rows_exactly(tmp_path):
    checkpoint = CampaignCheckpoint(str(tmp_path))
    campaign = _campaigns()[0]
    rows = _rows(campaign)
    token = checkpoint.shard_token("chip-X", campaign)
    assert checkpoint.load(token) is None
    checkpoint.save(token, "chip-X", campaign, encode_rows(rows))
    assert checkpoint.load(token) == rows


def test_manifest_is_the_commit_point(tmp_path):
    """A stray CSV without its manifest (crash mid-checkpoint) does not
    count as a completed shard."""
    checkpoint = CampaignCheckpoint(str(tmp_path))
    campaign = _campaigns()[0]
    token = checkpoint.shard_token("chip-X", campaign)
    with open(os.path.join(str(tmp_path), f"{token}.csv"), "w") as handle:
        handle.write("partial garbage")
    assert checkpoint.load(token) is None


def test_tampered_csv_is_rejected(tmp_path):
    checkpoint = CampaignCheckpoint(str(tmp_path))
    campaign = _campaigns()[0]
    token = checkpoint.shard_token("chip-X", campaign)
    checkpoint.save(token, "chip-X", campaign,
                    encode_rows(_rows(campaign)))
    csv_path = os.path.join(str(tmp_path), f"{token}.csv")
    with open(csv_path, encoding="utf-8", newline="") as handle:
        text = handle.read()
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text.replace("correct", "crooked", 1))
    with pytest.raises(CampaignError, match="hash mismatch"):
        checkpoint.load(token)


def test_tampered_manifest_row_count_is_rejected(tmp_path):
    checkpoint = CampaignCheckpoint(str(tmp_path))
    campaign = _campaigns()[0]
    token = checkpoint.shard_token("chip-X", campaign)
    checkpoint.save(token, "chip-X", campaign,
                    encode_rows(_rows(campaign)))
    manifest_path = os.path.join(str(tmp_path), f"{token}.json")
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    manifest["rows"] += 1
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    with pytest.raises(CampaignError, match="row count"):
        checkpoint.load(token)


def _adversarial_rows(campaign):
    """Shard rows whose text fields hold the CSV-significant characters
    and whose numbers include numpy scalars and extreme floats. (No NUL:
    csv refuses it on some supported Pythons.)"""
    rows = _rows(campaign)
    texts = ['mc,f"q"', "line\nbreak", "cr\rlf\r\n", "pipe|deadbeef",
             "", " lead", "trail ", "\u00e9\u2028\U0001f600", '"']
    floats = [np.float64(0.1), -0.0, 1e-310, 1.7976931348623157e308,
              float("inf"), np.float64(2.4)]
    return [row._replace(
        benchmark=texts[i % len(texts)], cores=texts[(i + 3) % len(texts)],
        verdict=texts[(i + 7) % len(texts)],
        voltage_mv=floats[i % len(floats)],
        wall_time_s=floats[(i + 2) % len(floats)],
        repetition=np.int64(row.repetition))
        for i, row in enumerate(rows)]


def _dict_writer_csv(rows):
    """The shard CSV text as ``csv.DictWriter`` wrote it before."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(RESULT_FIELDS))
    writer.writeheader()
    for row in rows:
        writer.writerow(row._asdict())
    return buffer.getvalue()


def test_csv_text_is_byte_identical_to_the_dict_writer(tmp_path):
    campaign = _campaigns()[0]
    rows = _adversarial_rows(campaign)
    store = ResultStore()
    store.extend(rows)
    text = _dict_writer_csv(rows)
    assert store.to_csv_text() == text
    checkpoint = CampaignCheckpoint(str(tmp_path))
    token = checkpoint.shard_token("chip-X", campaign)
    checkpoint.save(token, "chip-X", campaign, encode_rows(rows))
    with open(os.path.join(str(tmp_path), f"{token}.json"),
              encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert manifest["sha256"] == \
        hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert checkpoint.load(token) == rows


def test_shard_written_by_the_dict_writer_still_resumes(tmp_path):
    """A ``--resume`` directory whose shard CSV and manifest were written
    by the ``DictWriter`` codec loads unchanged."""
    campaign = _campaigns()[0]
    rows = _adversarial_rows(campaign)
    checkpoint = CampaignCheckpoint(str(tmp_path))
    token = checkpoint.shard_token("chip-X", campaign)
    text = _dict_writer_csv(rows)
    with open(os.path.join(str(tmp_path), f"{token}.csv"), "w",
              encoding="utf-8", newline="") as handle:
        handle.write(text)
    with open(os.path.join(str(tmp_path), f"{token}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"token": token, "chip": "chip-X",
                   "campaign": campaign.name, "status": "completed",
                   "rows": len(rows),
                   "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()},
                  handle, indent=1)
    assert checkpoint.load(token) == rows
