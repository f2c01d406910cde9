"""Result storage: per-run rows to a final CSV.

The framework's parsing phase "provides a fine-grained classification of
the effects observed for each characterization run" and emits a final
CSV. :class:`ResultStore` keeps the rows in memory, supports filtered
queries (per benchmark, per setup), and serializes to CSV text or a
file.
"""

from __future__ import annotations

import csv
import io
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence

from repro.errors import CampaignError

#: Canonical column order of the final CSV.
RESULT_FIELDS = (
    "run_id", "benchmark", "suite", "voltage_mv", "freq_ghz", "cores",
    "repetition", "outcome", "verdict", "corrected_errors",
    "uncorrected_errors", "wall_time_s", "run_key",
)

#: The header record of the final CSV (no column name needs quoting).
CSV_HEADER = ",".join(RESULT_FIELDS) + "\r\n"


class ResultRow(NamedTuple):
    """One repetition of one characterization run.

    A ``NamedTuple`` rather than a frozen dataclass: campaigns create one
    row per repetition (hundreds of thousands in a full study) and tuple
    construction is several times cheaper than a frozen dataclass's
    field-by-field ``object.__setattr__`` path, while keeping the same
    immutable, by-value-comparable record semantics.
    """

    run_id: int
    benchmark: str
    suite: str
    voltage_mv: float
    freq_ghz: float
    cores: str
    repetition: int
    outcome: str
    verdict: str
    corrected_errors: int
    uncorrected_errors: int
    wall_time_s: float
    #: Globally unique run identity (chip serial + campaign + run
    #: signature), stamped by the executor. Empty on rows produced before
    #: execution context is known; the cloud key falls back to ``run_id``.
    run_key: str = ""


def row_from_fields(parts: Sequence[str]) -> ResultRow:
    """Build a :class:`ResultRow` from its string fields, in column order.

    ``parts`` holds exactly one string per :data:`RESULT_FIELDS` column,
    in that order. The one place CSV/transport text turns back into
    typed rows, so the codec in :mod:`repro.core.transport` and
    :meth:`ResultStore.from_csv_text` can never drift apart. A wrong
    field count or a non-numeric number raises :class:`CampaignError`.
    """
    try:
        (run_id, benchmark, suite, voltage_mv, freq_ghz, cores, repetition,
         outcome, verdict, corrected_errors, uncorrected_errors,
         wall_time_s, run_key) = parts
        return ResultRow(
            int(run_id), benchmark, suite, float(voltage_mv),
            float(freq_ghz), cores, int(repetition), outcome, verdict,
            int(corrected_errors), int(uncorrected_errors),
            float(wall_time_s), run_key)
    except (TypeError, ValueError) as exc:
        raise CampaignError(f"malformed row record: {exc}") from exc


class ResultStore:
    """Append-only store of result rows with CSV export."""

    def __init__(self) -> None:
        self._rows: List[ResultRow] = []

    def append(self, row: ResultRow) -> None:
        self._rows.append(row)

    def extend(self, rows: Iterable[ResultRow]) -> None:
        """Bulk-append rows (one list op, not one call per row)."""
        self._rows.extend(rows)

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self, benchmark: Optional[str] = None,
             voltage_mv: Optional[float] = None,
             predicate: Optional[Callable[[ResultRow], bool]] = None) -> List[ResultRow]:
        """Filtered view of the stored rows."""
        selected = self._rows
        if benchmark is not None:
            selected = [r for r in selected if r.benchmark == benchmark]
        if voltage_mv is not None:
            selected = [r for r in selected if abs(r.voltage_mv - voltage_mv) < 1e-9]
        if predicate is not None:
            selected = [r for r in selected if predicate(r)]
        return list(selected)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_csv_text(self) -> str:
        """Serialize all rows as CSV text (header included).

        Rows are tuples in :data:`RESULT_FIELDS` order, so one
        ``writerows`` call writes them after :data:`CSV_HEADER`; ``csv``
        renders floats with ``repr``, the exact round-trip form.
        """
        buffer = io.StringIO()
        buffer.write(CSV_HEADER)
        csv.writer(buffer).writerows(self._rows)
        return buffer.getvalue()

    def write_csv(self, path: str) -> int:
        """Write the final CSV to ``path``; returns the row count."""
        text = self.to_csv_text()
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        return len(self._rows)

    @classmethod
    def from_csv_text(cls, text: str) -> "ResultStore":
        """Parse a CSV produced by :meth:`to_csv_text`.

        The header is mapped to column positions once; every record must
        then have exactly the header's field count. ``run_key`` is
        optional so CSVs written before the global run-identity column
        existed still load; extra columns are ignored. Blank lines are
        skipped.
        """
        store = cls()
        reader = csv.reader(io.StringIO(text))
        try:
            names = next(reader, None)
            required = set(RESULT_FIELDS) - {"run_key"}
            if names is None or required - set(names):
                raise CampaignError("CSV is missing required result columns")
            positions = None
            if tuple(names) != RESULT_FIELDS:
                index = {name: pos for pos, name in enumerate(names)}
                positions = [index.get(name) for name in RESULT_FIELDS]
            for parts in reader:
                if not parts:
                    continue
                if len(parts) != len(names):
                    raise CampaignError(
                        f"malformed CSV line {reader.line_num}: "
                        f"{len(parts)} fields, header has {len(names)}")
                if positions is not None:
                    parts = ["" if pos is None else parts[pos]
                             for pos in positions]
                store.append(row_from_fields(parts))
        except csv.Error as exc:
            raise CampaignError(f"malformed CSV: {exc}") from exc
        return store
