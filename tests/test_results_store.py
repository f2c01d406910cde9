"""Result store and CSV round-trip."""

import csv

import pytest

from repro.core.results import RESULT_FIELDS, ResultRow, ResultStore
from repro.errors import CampaignError


def row(run_id=1, benchmark="mcf", voltage=900.0, rep=0,
        outcome="correct") -> ResultRow:
    return ResultRow(run_id=run_id, benchmark=benchmark, suite="spec2006",
                     voltage_mv=voltage, freq_ghz=2.4, cores="0",
                     repetition=rep, outcome=outcome, verdict="completed",
                     corrected_errors=0, uncorrected_errors=0,
                     wall_time_s=300.0)


def test_append_and_len():
    store = ResultStore()
    store.append(row())
    store.extend([row(rep=1), row(rep=2)])
    assert len(store) == 3


def test_filtered_queries():
    store = ResultStore()
    store.append(row(benchmark="mcf", voltage=900.0))
    store.append(row(benchmark="mcf", voltage=890.0))
    store.append(row(benchmark="gcc", voltage=900.0))
    assert len(store.rows(benchmark="mcf")) == 2
    assert len(store.rows(voltage_mv=900.0)) == 2
    assert len(store.rows(benchmark="mcf", voltage_mv=890.0)) == 1
    assert len(store.rows(predicate=lambda r: r.repetition == 0)) == 3


def test_csv_roundtrip():
    store = ResultStore()
    store.append(row())
    store.append(row(outcome="crash", rep=1, voltage=880.0))
    text = store.to_csv_text()
    parsed = ResultStore.from_csv_text(text)
    assert len(parsed) == 2
    assert parsed.rows()[1].outcome == "crash"
    assert parsed.rows()[1].voltage_mv == 880.0


def test_csv_header_schema():
    text = ResultStore().to_csv_text()
    header = text.splitlines()[0]
    assert header.split(",") == list(RESULT_FIELDS)


def test_csv_missing_columns_rejected():
    with pytest.raises(CampaignError):
        ResultStore.from_csv_text("a,b,c\n1,2,3\n")


def _csv_with_last_record(edit) -> str:
    """A two-row CSV whose last record's fields pass through ``edit``."""
    store = ResultStore()
    store.extend([row(), row(rep=1)._replace(run_key="chip/mcf/v=900.0")])
    header, first, last = store.to_csv_text().splitlines()
    return "\r\n".join([header, first, edit(last)]) + "\r\n"


def test_csv_record_with_an_extra_field_rejected():
    text = _csv_with_last_record(lambda line: line + ",surplus")
    with pytest.raises(CampaignError, match="14 fields"):
        ResultStore.from_csv_text(text)


def test_csv_record_missing_its_run_key_rejected():
    text = _csv_with_last_record(lambda line: line.rsplit(",", 1)[0])
    with pytest.raises(CampaignError, match="12 fields"):
        ResultStore.from_csv_text(text)


def test_csv_parse_error_is_typed():
    """``csv.reader``'s own errors (here an oversized field) surface as
    :class:`CampaignError`, not ``csv.Error``."""
    oversized = "x" * (csv.field_size_limit() + 1)
    text = _csv_with_last_record(lambda line: line.replace("mcf", oversized))
    with pytest.raises(CampaignError, match="field limit"):
        ResultStore.from_csv_text(text)


def test_legacy_csv_without_run_key_column_loads():
    """CSVs written before the run-identity column still load, with an
    empty ``run_key`` on every row."""
    rows = [row(), row(outcome="crash", rep=1, voltage=880.0)]
    store = ResultStore()
    store.extend(rows)
    legacy = "\r\n".join(line.rsplit(",", 1)[0]
                          for line in store.to_csv_text().splitlines())
    assert "run_key" not in legacy
    assert ResultStore.from_csv_text(legacy + "\r\n").rows() == rows


def test_csv_columns_are_mapped_by_header_name():
    """A header in another order, with an extra column, maps by name."""
    names = list(reversed(RESULT_FIELDS)) + ["note"]
    original = row(rep=4)._replace(run_key="k")
    values = dict(zip(RESULT_FIELDS, original))
    lines = [",".join(names),
             ",".join([str(values[name]) for name in names[:-1]] + ["x"])]
    assert ResultStore.from_csv_text("\n".join(lines)).rows() == [original]


def test_write_csv_to_disk(tmp_path):
    store = ResultStore()
    store.append(row())
    path = tmp_path / "results.csv"
    assert store.write_csv(str(path)) == 1
    assert path.read_text().startswith("run_id,")
