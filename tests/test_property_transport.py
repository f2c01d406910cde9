"""Property-based tests of the result transport codec (hypothesis)."""

import csv
import io

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.results import (CSV_HEADER, RESULT_FIELDS, ResultRow,
                                ResultStore)
from repro.core.transport import (CloudStore, decode_row, encode_row,
                                  encode_rows)
from repro.errors import CampaignError
import pytest

#: Heavy module: deselected from the smoke tier (``pytest -m "not slow"``).
pytestmark = pytest.mark.slow


# Text fields may carry anything a benchmark label or run signature can
# hold -- including CSV delimiters, quotes, newlines and the serial
# frame's '|' separator -- except a NUL, which the codec refuses
# (``test_encode_rejects_any_row_holding_a_nul``).
row_chars = st.characters(blacklist_categories=("Cs",),
                          blacklist_characters="\0")
field_text = st.text(alphabet=row_chars, max_size=40)
finite_floats = st.floats(allow_nan=False, width=64)
counts = st.integers(min_value=0, max_value=2**31 - 1)


@st.composite
def result_rows(draw):
    return ResultRow(
        run_id=draw(counts),
        benchmark=draw(field_text),
        suite=draw(field_text),
        voltage_mv=draw(finite_floats),
        freq_ghz=draw(finite_floats),
        cores=draw(field_text),
        repetition=draw(counts),
        outcome=draw(field_text),
        verdict=draw(field_text),
        corrected_errors=draw(counts),
        uncorrected_errors=draw(counts),
        wall_time_s=draw(finite_floats),
        run_key=draw(field_text),
    )


#: Rows whose numbers are numpy scalars, as vectorized samplers hand them
#: out: ``csv`` must render them exactly as ``str`` does.
numpy_rows = result_rows().flatmap(lambda row: st.builds(
    lambda to_float, to_int: row._replace(
        run_id=to_int(row.run_id), voltage_mv=to_float(row.voltage_mv),
        freq_ghz=to_float(row.freq_ghz), repetition=to_int(row.repetition),
        corrected_errors=to_int(row.corrected_errors),
        uncorrected_errors=to_int(row.uncorrected_errors),
        wall_time_s=to_float(row.wall_time_s)),
    st.sampled_from([float, np.float64]),
    st.sampled_from([int, np.int64, np.int32])))

#: Text weighted toward the characters that steer the CSV parser (and
#: the serial frame's separator).
special_chars = st.sampled_from([",", '"', "\r", "\n", "\0", "|"])
line_chars = st.one_of(special_chars,
                       st.characters(blacklist_categories=("Cs",)))

#: Rows whose label and run key mix CSV-significant characters with
#: multi-byte UTF-8, so a record's byte length differs from its length.
label_text = st.text(alphabet=st.one_of(
    st.sampled_from([",", '"', "\r", "\n", "\u00e9", "\u2028",
                     "\U0001f600"]),
    row_chars), max_size=12)
labelled_rows = result_rows().flatmap(lambda row: st.builds(
    lambda benchmark, run_key: row._replace(benchmark=benchmark,
                                            run_key=run_key),
    label_text, label_text))
#: The type each CSV column parses to, in column order.
COLUMN_TYPES = (int, str, str, float, float, str, int, str, str, int, int,
                float, str)


@st.composite
def field_lines(draw):
    """Well-typed columns, up to two overwritten with weighted text, and
    now and then one column too few or too many."""
    fields = [draw({int: st.integers(min_value=-9, max_value=2**40).map(str),
                    float: st.floats().map(repr),
                    str: field_text}[kind]) for kind in COLUMN_TYPES]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        fields[draw(st.integers(min_value=0, max_value=len(fields) - 1))] = \
            draw(st.text(alphabet=line_chars, max_size=4))
    width = draw(st.sampled_from([13, 13, 13, 12, 14]))
    return ",".join((fields + ["x"])[:width])


#: A valid encoded row with special characters spliced into it.
spliced_lines = st.builds(
    lambda line, cut, text: line[:cut % (len(line) + 1)] + text
    + line[cut % (len(line) + 1):],
    result_rows().map(encode_row), st.integers(min_value=0),
    st.text(alphabet=special_chars, min_size=1, max_size=3))
any_lines = st.one_of(st.text(alphabet=line_chars, max_size=80),
                      field_lines(), spliced_lines)


def reference_encode(row) -> str:
    buffer = io.StringIO()
    csv.writer(buffer).writerow([str(value) for value in row])
    return buffer.getvalue()[:-2]


def reference_decode(line: str):
    """The row ``csv.reader`` parses out of ``line``, or ``None`` where
    the codec must raise :class:`CampaignError`."""
    try:
        records = list(csv.reader(io.StringIO(line)))
    except csv.Error:
        return None
    if len(records) != 1 or len(records[0]) != len(RESULT_FIELDS):
        return None
    try:
        return ResultRow(*(kind(text) for kind, text
                           in zip(COLUMN_TYPES, records[0])))
    except ValueError:
        return None


@given(row=st.one_of(result_rows(), numpy_rows))
@settings(max_examples=300, deadline=None)
def test_encode_matches_the_csv_writer_of_str_fields(row):
    assert encode_row(row) == reference_encode(row)


@given(row=result_rows(), field=st.sampled_from(
    ["benchmark", "suite", "cores", "outcome", "verdict", "run_key"]),
    cut=st.integers(min_value=0))
@settings(max_examples=150, deadline=None)
def test_encode_rejects_any_row_holding_a_nul(row, field, cut):
    text = getattr(row, field)
    cut %= len(text) + 1
    with pytest.raises(CampaignError):
        encode_row(row._replace(**{field: text[:cut] + "\0" + text[cut:]}))


@given(line=any_lines)
@settings(max_examples=1000, deadline=None)
def test_decode_matches_the_csv_reader(line):
    expected = reference_decode(line)
    if expected is None:
        with pytest.raises(CampaignError):
            decode_row(line)
    else:
        # repr: NaN compares equal to itself, -0.0 differs from 0.0.
        assert repr(decode_row(line)) == repr(expected)


@given(rows=st.lists(st.one_of(result_rows(), numpy_rows), max_size=8))
@settings(max_examples=150, deadline=None)
def test_csv_text_matches_the_dict_writer(rows):
    """The checkpoint CSV is byte-for-byte what ``csv.DictWriter`` wrote
    before, so manifests hashed then still verify."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(RESULT_FIELDS))
    writer.writeheader()
    for row in rows:
        writer.writerow(row._asdict())
    store = ResultStore()
    store.extend(rows)
    assert store.to_csv_text() == buffer.getvalue()


@given(rows=st.lists(st.one_of(result_rows(), numpy_rows, labelled_rows),
                     max_size=8))
@settings(max_examples=150, deadline=None)
def test_shard_encoding_is_the_encoded_rows_and_the_csv_text(rows):
    """Each byte range of a shard's buffer is one encoded row, and the
    CSV header plus the buffer is the shard's checkpoint CSV."""
    shard = encode_rows(rows)
    starts = [0] + list(shard.ends[:-1])
    assert [shard.data[start:end] for start, end in zip(starts, shard.ends)] \
        == [encode_row(row).encode("utf-8") + b"\r\n" for row in rows]
    assert len(shard.ends) == len(rows)
    assert list(shard.records()) == \
        [encode_row(row).encode("utf-8") for row in rows]
    store = ResultStore()
    store.extend(rows)
    assert CSV_HEADER.encode("utf-8") + shard.data == \
        store.to_csv_text().encode("utf-8")


@given(row=result_rows())
@settings(max_examples=300, deadline=None)
def test_codec_roundtrips_any_row(row):
    assert decode_row(encode_row(row)) == row


@given(row=result_rows())
@settings(max_examples=200, deadline=None)
def test_encoded_row_is_single_line_frame_payload(row):
    """The serial link frames one encoded row per frame; the payload
    must always parse back to exactly one record, whatever the fields
    contain (embedded newlines stay inside CSV quotes)."""
    assert decode_row(encode_row(row)) == row
    doubled = encode_row(row) + "\r\n" + encode_row(row)
    with pytest.raises(CampaignError):
        decode_row(doubled)


@given(rows=st.lists(result_rows(), max_size=20),
       dup_mask=st.lists(st.booleans(), max_size=20))
@settings(max_examples=150, deadline=None)
def test_cloud_store_is_idempotent_under_any_replay(rows, dup_mask):
    cloud = CloudStore()
    sends = 0
    for index, row in enumerate(rows):
        cloud.receive(row)
        sends += 1
        if index < len(dup_mask) and dup_mask[index]:
            cloud.receive(row)     # replayed retransmission
            sends += 1
    unique = {CloudStore.key_of(row) for row in rows}
    assert len(cloud) == len(unique)
    assert cloud.duplicates == sends - len(unique)
    materialized = cloud.to_store().rows()
    assert len(materialized) == len(unique)
    assert {CloudStore.key_of(row) for row in materialized} == unique
