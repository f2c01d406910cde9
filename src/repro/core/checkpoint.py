"""Campaign checkpoint/resume: persist completed shards to disk.

A full characterization study is hours of wall time (the paper calls the
campaigns "particularly time-consuming"), and the machine running the
harness is itself being crashed on purpose -- so an interrupted
``--jobs N`` study must not re-execute the shards that already finished.

:class:`CampaignCheckpoint` stores one CSV of result rows plus one JSON
manifest per completed campaign shard, keyed by a content-addressed
token derived from the shard's global run identities (chip serial +
campaign + every run signature). The manifest is written *after* the
rows, so a manifest's existence is the commit point: a crash mid-write
leaves a stray ``.csv`` that resume simply re-executes.

Because shard execution is deterministic (seeded substreams per run) and
the CSV codec round-trips floats exactly (``repr`` precision), a resumed
study reproduces the interrupted study's rows bit-for-bit -- the
property the checkpoint tests assert.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Union

from repro.core.campaign import Campaign
from repro.core.results import ResultRow, ResultStore
from repro.core.supervisor import CRASH, UnitFailure
from repro.errors import CampaignError

#: Manifest ``status`` values. Manifests written before quarantine
#: support carry no status field and count as completed.
STATUS_COMPLETED = "completed"
STATUS_QUARANTINED = "quarantined"


def _fs_safe(name: str) -> str:
    """A filesystem-safe rendering of a campaign name."""
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in name)


class CampaignCheckpoint:
    """Per-shard CSV + manifest persistence under one directory."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @staticmethod
    def shard_token(chip_serial: str, campaign: Campaign) -> str:
        """Content-addressed identity of one (chip, campaign) shard.

        Hashes the chip serial, the campaign name and every run's global
        key *and* run id -- so a shard only resumes into a study that
        declares the exact same work, and two campaigns that happen to
        share a benchmark name but differ in setups never collide.
        """
        parts = [chip_serial, campaign.name]
        parts.extend(f"run{run.run_id}:{run.global_key(chip_serial)}"
                     for run in campaign.runs)
        digest = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
        return f"{_fs_safe(campaign.name)}-{digest[:16]}"

    def _rows_path(self, token: str) -> str:
        return os.path.join(self.directory, f"{token}.csv")

    def _manifest_path(self, token: str) -> str:
        return os.path.join(self.directory, f"{token}.json")

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _read_manifest(self, token: str) -> Optional[Dict]:
        path = self._manifest_path(token)
        if not os.path.exists(path):
            return None
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    def save(self, token: str, chip_serial: str, campaign: Campaign,
             rows: List[ResultRow]) -> None:
        """Persist one completed shard: rows first, manifest last."""
        store = ResultStore()
        store.extend(rows)
        text = store.to_csv_text()
        rows_path = self._rows_path(token)
        tmp_path = rows_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp_path, rows_path)
        manifest = {
            "token": token,
            "chip": chip_serial,
            "campaign": campaign.name,
            "status": STATUS_COMPLETED,
            "rows": len(rows),
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        }
        self._write_manifest(token, manifest)

    def _write_manifest(self, token: str, manifest: Dict) -> None:
        tmp_manifest = self._manifest_path(token) + ".tmp"
        with open(tmp_manifest, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=1)
        os.replace(tmp_manifest, self._manifest_path(token))

    def mark_quarantined(self, token: str, chip_serial: str,
                         campaign: Campaign, failure: UnitFailure) -> None:
        """Record a shard the supervisor quarantined: manifest, no rows.

        A later ``--resume`` run then knows the shard was *decided* (not
        merely unfinished) and continues past it, surfacing the typed
        failure instead of re-executing a known-poisonous shard. A
        shard that already completed is never demoted.
        """
        existing = self._read_manifest(token)
        if existing is not None and existing.get(
                "status", STATUS_COMPLETED) == STATUS_COMPLETED:
            return
        self._write_manifest(token, {
            "token": token,
            "chip": chip_serial,
            "campaign": campaign.name,
            "status": STATUS_QUARANTINED,
            "rows": 0,
            "failure": {
                "kind": failure.kind,
                "attempts": failure.attempts,
                "detail": failure.detail,
                "label": failure.label or campaign.name,
            },
        })

    def load(self, token: str) -> Union[List[ResultRow], UnitFailure, None]:
        """What the checkpoint holds for one shard, from one manifest read.

        ``None`` when the shard has no manifest (it never reached its
        commit point), the typed :class:`UnitFailure` of a quarantined
        shard, else the completed shard's rows, verified against the
        manifest: a hash or row-count mismatch raises
        :class:`~repro.errors.CampaignError`.
        """
        manifest = self._read_manifest(token)
        if manifest is None:
            return None
        if manifest.get("status", STATUS_COMPLETED) == STATUS_QUARANTINED:
            failure = manifest.get("failure", {})
            return UnitFailure(
                index=-1,
                kind=failure.get("kind", CRASH),
                attempts=int(failure.get("attempts", 0)),
                detail=failure.get("detail", ""),
                label=failure.get("label", manifest.get("campaign", "")),
            )
        # newline="" reads the file verbatim: the CSV uses \r\n row
        # terminators, which universal-newline mode would rewrite and
        # break the manifest hash.
        with open(self._rows_path(token), encoding="utf-8",
                  newline="") as handle:
            text = handle.read()
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != manifest.get("sha256"):
            raise CampaignError(
                f"checkpoint shard {token!r} is corrupt: CSV hash mismatch")
        rows = ResultStore.from_csv_text(text).rows()
        if len(rows) != manifest.get("rows"):
            raise CampaignError(
                f"checkpoint shard {token!r} is corrupt: row count mismatch")
        return rows
