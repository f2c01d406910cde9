"""Result transports: the Figure 2 "Serial / Network -> Cloud" path.

The framework's execution phase ships raw run logs off the board --
over the serial console when the OS is wedged, over the network
otherwise -- into a cloud store the parsing phase reads. Since runs
deliberately crash the machine, the transports must tolerate corruption,
loss and duplicated retransmissions.

This module models that plumbing:

- :class:`SerialLink` -- frames each row's CSV record as a checksummed
  line over a bit-error-prone UART; the receiver drops bad frames and
  the sender retries a bounded number of times;
- :class:`NetworkLink` -- packetized transfer with seeded packet loss
  and bounded retries (at-least-once delivery: duplicates possible);
- :class:`CloudStore` -- the receiving end; idempotent on the globally
  unique ``(run_key, run_id, repetition)`` identity so at-least-once
  transports converge to exactly-once contents, even when several
  campaigns or chips upload into the same store;
- :class:`ResultUploader` -- drains a :class:`ResultStore` through any
  link into the cloud store and reports delivery statistics.

Both links accept a :class:`~repro.core.faults.FaultPlan` whose bursts
force corruption/loss onto specific rows -- the hook the
fault-equivalence tests use to prove the pipeline still converges to the
clean run's exact contents. Each link counts the attempts a burst hit in
its own :attr:`TransportStats.injected`.
"""

from __future__ import annotations

import csv
import io
import zlib
from array import array
from dataclasses import dataclass
from itertools import accumulate
from types import SimpleNamespace
from typing import (Dict, Iterable, Iterator, NamedTuple, Optional, Sequence,
                    Tuple)

from repro.core.faults import FaultPlan
from repro.core.results import ResultRow, ResultStore, row_from_fields
from repro.errors import CampaignError
from repro.rand import SeedLike, substream

#: Fixed-width CRC32 suffix: ``payload | crc`` with an 8-hex-digit CRC.
#: The separator and CRC live at fixed offsets from the frame's *end*,
#: so no corrupted payload byte -- not even one forging a ``|`` -- can
#: shift where the receiver splits the frame.
_CRC_DIGITS = 8
_FRAME_OVERHEAD = _CRC_DIGITS + 1  # "|" + 8 hex digits


#: A file for ``csv.writer`` whose ``write`` is ``str``: ``writerow``
#: returns what ``write`` returns, so it hands back the formatted line
#: and nothing is buffered.
_ECHO_FILE = SimpleNamespace(write=str)


def encode_row(row: ResultRow) -> str:
    """Serialize one row as a proper CSV record (no trailing newline).

    Uses the same writer and quoting rules as
    :meth:`ResultStore.to_csv_text`, so field values containing commas,
    quotes or newlines (benchmark labels, the global ``run_key``)
    survive the trip intact. A NUL in a text field raises
    :class:`CampaignError` on every supported Python: 3.10's writer
    refuses it, and 3.9's reader cannot parse the record back.
    """
    try:
        line = csv.writer(_ECHO_FILE).writerow(row)
    except csv.Error as exc:
        raise CampaignError(f"unencodable row: {exc}") from exc
    if "\0" in line:
        raise CampaignError("unencodable row: a field holds a NUL")
    return line[:-2]  # strip "\r\n"


class EncodedRows(NamedTuple):
    """Rows encoded once, as the CSV records of one buffer.

    ``data`` is exactly the UTF-8 bytes :meth:`ResultStore.to_csv_text`
    writes after its header for the same rows; ``ends[i]`` is the byte
    offset just past record ``i``'s ``\\r\\n``. A campaign shard is
    encoded into one of these where its rows are built, and both the
    checkpoint and the serial link read it.
    """

    data: bytes
    ends: Sequence[int]

    def records(self) -> Iterator[bytes]:
        """Each record's bytes, without its ``\\r\\n``."""
        start = 0
        for end in self.ends:
            yield self.data[start:end - 2]
            start = end


def encode_rows(rows: Sequence[ResultRow]) -> EncodedRows:
    """Encode ``rows`` with :func:`encode_row` into one buffer."""
    lines = [encode_row(row) for row in rows]
    text = "\r\n".join(lines) + "\r\n" if lines else ""
    data = text.encode("utf-8")
    # Pure ASCII (every row the harness builds): bytes == characters.
    sizes = (len(line) + 2 for line in lines) if len(data) == len(text) \
        else (len(line.encode("utf-8")) + 2 for line in lines)
    return EncodedRows(data, array("q", accumulate(sizes)))


def decode_row(line: str) -> ResultRow:
    """Parse a record produced by :func:`encode_row`.

    A line with no quote, CR, LF or NUL that fits in
    ``csv.field_size_limit()`` -- every row the harness itself builds --
    is split on commas, which is what ``csv.reader`` does with it. Any
    other line goes through ``csv.reader``.
    """
    # Without these characters csv's default dialect has no quoting, no
    # record break and (before 3.11) no NUL error to apply.
    if '"' not in line and "\r" not in line and "\n" not in line \
            and "\0" not in line and len(line) <= csv.field_size_limit():
        return row_from_fields(line.split(","))
    try:
        rows = list(csv.reader(io.StringIO(line)))
    except csv.Error as exc:
        raise CampaignError(f"malformed row: {exc}") from exc
    if len(rows) != 1:
        raise CampaignError(f"malformed row: {len(rows)} records in frame")
    return row_from_fields(rows[0])


@dataclass
class TransportStats:
    """Delivery accounting of one link.

    ``delivered`` counts *rows* that reached the store (once per row,
    however many retransmissions it took); ``dropped`` counts lost
    packets, ``ack_lost`` lost acknowledgements -- so
    ``attempts - delivered`` is the true retransmission overhead.
    ``injected`` counts the attempts a fault plan's burst corrupted or
    dropped (they are also in ``corrupted`` / ``dropped``).
    """

    attempts: int = 0
    delivered: int = 0
    corrupted: int = 0
    dropped: int = 0
    ack_lost: int = 0
    gave_up: int = 0
    injected: int = 0

    @property
    def retry_rate(self) -> float:
        if self.delivered == 0:
            return 0.0
        return (self.attempts - self.delivered) / self.delivered


class CloudStore:
    """Idempotent receiving store keyed by global run identity.

    The key is ``(run_key, run_id, repetition)``: ``run_key`` is the
    chip serial + campaign + run signature the executor stamps on every
    row, so uploads from different campaigns or chips -- whose *local*
    ``run_id`` counters collide all the time -- never shadow each
    other's rows. Rows without a ``run_key`` (hand-built or legacy) fall
    back to the per-campaign ``(run_id, repetition)`` behaviour.
    """

    def __init__(self) -> None:
        self._rows: Dict[Tuple[str, int, int], ResultRow] = {}
        self.duplicates = 0

    @staticmethod
    def key_of(row: ResultRow) -> Tuple[str, int, int]:
        """The deduplication identity of one row."""
        return (row.run_key, row.run_id, row.repetition)

    def receive(self, row: ResultRow) -> None:
        """Accept a row; duplicate identities are counted and ignored."""
        key = self.key_of(row)
        if key in self._rows:
            self.duplicates += 1
            return
        self._rows[key] = row

    def __len__(self) -> int:
        return len(self._rows)

    def to_store(self) -> ResultStore:
        """Materialize a :class:`ResultStore` in key order."""
        store = ResultStore()
        for key in sorted(self._rows):
            store.append(self._rows[key])
        return store


class SerialLink:
    """Checksummed line framing over a bit-error-prone UART.

    Every frame is ``payload|crc32`` with the separator and CRC at fixed
    offsets from the end; the receiver recomputes the CRC and NAKs
    mismatches. The sender retries up to ``max_retries`` times. The
    ``corruption_bursts`` of ``faults`` force corruption onto specific
    rows.
    """

    def __init__(self, store: CloudStore, bit_error_rate: float = 1e-5,
                 max_retries: int = 8, seed: SeedLike = None,
                 faults: Optional[FaultPlan] = None) -> None:
        if not 0.0 <= bit_error_rate < 1.0:
            raise CampaignError("bit error rate must be in [0, 1)")
        if max_retries < 0:
            raise CampaignError("max_retries cannot be negative")
        self.store = store
        self.bit_error_rate = bit_error_rate
        self.max_retries = max_retries
        self._rng = substream(seed, "serial-link")
        self._faults = faults
        self._rows_sent = 0
        self.stats = TransportStats()

    def _transmit(self, frame: bytes) -> bytes:
        """Push a frame through the noisy UART, flipping unlucky bits."""
        n_bits = len(frame) * 8
        flips = self._rng.binomial(n_bits, self.bit_error_rate)
        if flips == 0:
            return frame
        data = bytearray(frame)
        for _ in range(flips):
            position = int(self._rng.integers(n_bits))
            data[position // 8] ^= 1 << (position % 8)
        return bytes(data)

    @staticmethod
    def _injected_corruption(frame: bytes, row_index: int,
                             attempt: int) -> bytes:
        """Deterministically flip one bit (always caught by the CRC)."""
        n_bits = len(frame) * 8
        position = (row_index * 8191 + attempt * 131) % n_bits
        data = bytearray(frame)
        data[position // 8] ^= 1 << (position % 8)
        return bytes(data)

    def send(self, row: ResultRow, record: Optional[bytes] = None) -> bool:
        """Deliver one row; returns False if every retry failed.

        ``record`` is the row's CSV record when the caller already holds
        it (see :meth:`EncodedRows.records`); the row is encoded here
        otherwise.
        """
        row_index = self._rows_sent
        self._rows_sent += 1
        payload = encode_row(row).encode("utf-8") if record is None \
            else record
        frame = b"%s|%08x" % (payload, zlib.crc32(payload))
        for attempt in range(self.max_retries + 1):
            self.stats.attempts += 1
            if self._faults is not None \
                    and self._faults.corrupts(row_index, attempt):
                self.stats.injected += 1
                received = self._injected_corruption(frame, row_index, attempt)
            else:
                received = self._transmit(frame)
            decoded = None
            if len(received) > _FRAME_OVERHEAD \
                    and received[-_FRAME_OVERHEAD:-_CRC_DIGITS] == b"|":
                body = received[:-_FRAME_OVERHEAD]
                crc_text = received[-_CRC_DIGITS:]
                try:
                    if int(crc_text, 16) == zlib.crc32(body):
                        decoded = decode_row(body.decode("utf-8"))
                except (ValueError, UnicodeDecodeError, CampaignError):
                    decoded = None
            if decoded is not None:
                self.store.receive(decoded)
                self.stats.delivered += 1
                return True
            self.stats.corrupted += 1
        self.stats.gave_up += 1
        return False


class NetworkLink:
    """Packetized transfer with seeded loss and bounded retries.

    Loss drops the whole packet (the row); the sender retries until the
    acknowledgement arrives or the budget runs out. Acknowledgements can
    be lost too, producing duplicate deliveries -- which the idempotent
    :class:`CloudStore` absorbs. The ``loss_bursts`` of ``faults`` force
    loss onto specific rows.
    """

    def __init__(self, store: CloudStore, loss_rate: float = 0.05,
                 ack_loss_rate: float = 0.02, max_retries: int = 8,
                 seed: SeedLike = None,
                 faults: Optional[FaultPlan] = None) -> None:
        for name, rate in (("loss_rate", loss_rate),
                           ("ack_loss_rate", ack_loss_rate)):
            if not 0.0 <= rate < 1.0:
                raise CampaignError(f"{name} must be in [0, 1)")
        if max_retries < 0:
            raise CampaignError("max_retries cannot be negative")
        self.store = store
        self.loss_rate = loss_rate
        self.ack_loss_rate = ack_loss_rate
        self.max_retries = max_retries
        self._rng = substream(seed, "network-link")
        self._faults = faults
        self._rows_sent = 0
        self.stats = TransportStats()

    def send(self, row: ResultRow) -> bool:
        """Deliver one row with retry-until-acked semantics."""
        row_index = self._rows_sent
        self._rows_sent += 1
        arrived = False
        for attempt in range(self.max_retries + 1):
            self.stats.attempts += 1
            lost = self._rng.random() < self.loss_rate
            if self._faults is not None \
                    and self._faults.drops(row_index, attempt):
                self.stats.injected += 1
                lost = True
            if lost:
                self.stats.dropped += 1
                continue
            self.store.receive(row)       # packet arrived
            if not arrived:
                # Count the row once, however many retransmits it takes:
                # duplicate arrivals are the cloud store's business.
                self.stats.delivered += 1
                arrived = True
            if self._rng.random() < self.ack_loss_rate:
                # Ack lost: the sender will retransmit a duplicate.
                self.stats.ack_lost += 1
                continue
            return True
        if arrived:
            # The row landed on an attempt whose ack died; that is a
            # delivery, not a failure.
            return True
        self.stats.gave_up += 1
        # A previous upload of this same run identity may have landed it.
        return CloudStore.key_of(row) in self.store._rows


class ResultUploader:
    """Drains a local ResultStore through a link into the cloud."""

    def __init__(self, link) -> None:
        self.link = link

    def upload(self, store: ResultStore,
               records: Optional[Iterable[bytes]] = None) -> Tuple[int, int]:
        """Push every row; returns ``(sent_ok, failed)``.

        ``records`` -- one CSV record per row, in order -- lets a
        :class:`SerialLink` frame rows encoded earlier.
        """
        ok = failed = 0
        rows = store.rows()
        sends = map(self.link.send, rows) if records is None \
            else map(self.link.send, rows, records)
        for delivered in sends:
            if delivered:
                ok += 1
            else:
                failed += 1
        return ok, failed
