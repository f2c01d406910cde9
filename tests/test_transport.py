"""Result transports: serial framing, lossy network, idempotent cloud."""

import csv
import sys

import pytest

from repro.core.results import ResultRow, ResultStore
from repro.core.transport import (
    CloudStore,
    NetworkLink,
    ResultUploader,
    SerialLink,
    decode_row,
    encode_row,
    encode_rows,
)
from repro.errors import CampaignError


def row(run_id=1, rep=0, outcome="correct") -> ResultRow:
    return ResultRow(run_id=run_id, benchmark="mcf", suite="spec2006",
                     voltage_mv=900.0, freq_ghz=2.4, cores="0",
                     repetition=rep, outcome=outcome, verdict="completed",
                     corrected_errors=0, uncorrected_errors=0,
                     wall_time_s=300.0)


def store_of(count: int) -> ResultStore:
    store = ResultStore()
    for run_id in range(count):
        for rep in range(3):
            store.append(row(run_id=run_id, rep=rep))
    return store


# ----------------------------------------------------------------------
# Row codec
# ----------------------------------------------------------------------
def test_row_codec_roundtrip():
    original = row(run_id=7, rep=2, outcome="sdc")
    assert decode_row(encode_row(original)) == original


def test_decode_rejects_malformed():
    with pytest.raises(CampaignError):
        decode_row("too,few,fields")


# ----------------------------------------------------------------------
# Cloud store idempotence
# ----------------------------------------------------------------------
def test_cloud_store_dedupes():
    cloud = CloudStore()
    cloud.receive(row(run_id=1, rep=0))
    cloud.receive(row(run_id=1, rep=0))
    cloud.receive(row(run_id=1, rep=1))
    assert len(cloud) == 2
    assert cloud.duplicates == 1


def test_cloud_store_materializes_sorted():
    cloud = CloudStore()
    cloud.receive(row(run_id=2, rep=0))
    cloud.receive(row(run_id=1, rep=1))
    cloud.receive(row(run_id=1, rep=0))
    rows = cloud.to_store().rows()
    keys = [(r.run_id, r.repetition) for r in rows]
    assert keys == sorted(keys)


# ----------------------------------------------------------------------
# Serial link
# ----------------------------------------------------------------------
def test_serial_clean_channel_delivers_everything():
    cloud = CloudStore()
    link = SerialLink(cloud, bit_error_rate=0.0, seed=1)
    ok, failed = ResultUploader(link).upload(store_of(10))
    assert (ok, failed) == (30, 0)
    assert len(cloud) == 30
    assert link.stats.corrupted == 0


def test_serial_noisy_channel_retries_to_delivery():
    cloud = CloudStore()
    link = SerialLink(cloud, bit_error_rate=2e-3, max_retries=16, seed=2)
    ok, failed = ResultUploader(link).upload(store_of(15))
    assert failed == 0
    assert len(cloud) == 45
    assert link.stats.corrupted > 0          # corruption happened...
    assert link.stats.attempts > link.stats.delivered  # ...and was retried


def test_serial_corruption_never_pollutes_store():
    """CRC framing must reject every corrupted frame: whatever arrives
    in the cloud is a bit-exact subset of what was sent, even on a
    channel so bad that some rows exhaust their retries."""
    cloud = CloudStore()
    link = SerialLink(cloud, bit_error_rate=5e-3, max_retries=32, seed=3)
    source = store_of(10)
    ok, failed = ResultUploader(link).upload(source)
    sent_lines = set(source.to_csv_text().splitlines())
    received_lines = set(cloud.to_store().to_csv_text().splitlines())
    assert received_lines <= sent_lines
    assert len(cloud) == ok
    assert ok + failed == len(source)


def test_serial_moderate_channel_delivers_exactly():
    """At a survivable error rate every row arrives, in order, intact."""
    cloud = CloudStore()
    link = SerialLink(cloud, bit_error_rate=1e-3, max_retries=32, seed=3)
    source = store_of(10)
    ok, failed = ResultUploader(link).upload(source)
    assert failed == 0
    assert cloud.to_store().to_csv_text() == source.to_csv_text()


def test_serial_hopeless_channel_gives_up():
    cloud = CloudStore()
    link = SerialLink(cloud, bit_error_rate=0.2, max_retries=2, seed=4)
    ok, failed = ResultUploader(link).upload(store_of(3))
    assert failed > 0
    assert link.stats.gave_up == failed


def test_serial_validation():
    with pytest.raises(CampaignError):
        SerialLink(CloudStore(), bit_error_rate=1.5)
    with pytest.raises(CampaignError):
        SerialLink(CloudStore(), max_retries=-1)


# ----------------------------------------------------------------------
# Network link
# ----------------------------------------------------------------------
def test_network_lossy_channel_converges():
    cloud = CloudStore()
    link = NetworkLink(cloud, loss_rate=0.3, ack_loss_rate=0.1,
                       max_retries=32, seed=5)
    source = store_of(20)
    ok, failed = ResultUploader(link).upload(source)
    assert failed == 0
    assert len(cloud) == 60
    assert cloud.to_store().to_csv_text() == source.to_csv_text()


def test_network_lost_acks_produce_absorbed_duplicates():
    cloud = CloudStore()
    link = NetworkLink(cloud, loss_rate=0.0, ack_loss_rate=0.4,
                       max_retries=16, seed=6)
    ResultUploader(link).upload(store_of(20))
    assert cloud.duplicates > 0        # retransmissions happened
    assert len(cloud) == 60            # contents still exactly-once


def test_network_send_reports_arrival_despite_final_ack_loss():
    """If the packet landed but the last ack died, send() must still
    report success (the row is in the store)."""
    cloud = CloudStore()
    link = NetworkLink(cloud, loss_rate=0.0, ack_loss_rate=0.999,
                       max_retries=1, seed=7)
    assert link.send(row()) is True
    assert len(cloud) == 1


def _doomed_network_link(cloud: CloudStore) -> NetworkLink:
    """A link whose first row loses all of its three attempts."""
    from repro.core.faults import FaultBurst, FaultPlan

    return NetworkLink(cloud, max_retries=2, faults=FaultPlan(
        loss_bursts=(FaultBurst(first_row=0, rows=1, depth=3),)))


def test_network_send_gives_up_when_every_attempt_is_lost():
    cloud = CloudStore()
    link = _doomed_network_link(cloud)
    assert link.send(row()) is False
    assert (link.stats.gave_up, link.stats.dropped) == (1, 3)
    assert len(cloud) == 0


def test_network_send_that_gives_up_counts_a_row_landed_earlier():
    """A row an earlier upload of the same run identity landed is
    delivered, even when this send loses every attempt."""
    cloud = CloudStore()
    cloud.receive(row())
    link = _doomed_network_link(cloud)
    assert link.send(row()) is True
    assert (link.stats.gave_up, link.stats.dropped) == (1, 3)
    assert len(cloud) == 1


def test_network_validation():
    with pytest.raises(CampaignError):
        NetworkLink(CloudStore(), loss_rate=1.0)
    with pytest.raises(CampaignError):
        NetworkLink(CloudStore(), ack_loss_rate=-0.1)


def test_transport_stats_retry_rate():
    cloud = CloudStore()
    link = NetworkLink(cloud, loss_rate=0.5, max_retries=64, seed=8)
    ResultUploader(link).upload(store_of(10))
    assert link.stats.retry_rate > 0.0


# ----------------------------------------------------------------------
# Row codec: adversarial field values
# ----------------------------------------------------------------------
def test_row_codec_quotes_delimiters_in_fields():
    """Commas, quotes, pipes and newlines inside fields must survive."""
    nasty = row()._replace(
        benchmark='mc,f"quoted"', suite="spec|2006",
        cores="0,1,2", verdict="completed\nwith newline",
        run_key='chip-1/mc,f"/v=900.0|f=2.4')
    assert decode_row(encode_row(nasty)) == nasty


def test_row_codec_crc_like_suffix_in_field():
    """A field that *looks* like the serial frame's |crc suffix must not
    confuse anything: the codec is plain CSV, framing is the link's."""
    tricky = row()._replace(run_key="deadbeef|cafef00d")
    assert decode_row(encode_row(tricky)) == tricky


def test_decode_rejects_multiple_records():
    with pytest.raises(CampaignError):
        decode_row(encode_row(row()) + "\r\n" + encode_row(row()))


def test_decode_rejects_non_numeric_fields():
    line = encode_row(row()).replace("900.0", "not-a-voltage")
    with pytest.raises(CampaignError):
        decode_row(line)


@pytest.mark.parametrize("field", ["benchmark", "cores", "run_key"])
def test_encode_rejects_a_nul_on_every_python(field):
    """csv.writer refuses a NUL on 3.10 but encodes it on 3.9 and 3.11+,
    and only 3.11+ reads it back: the codec refuses it everywhere."""
    with_nul = row()._replace(**{field: "a\0b"})
    with pytest.raises(CampaignError, match="NUL|unencodable"):
        encode_row(with_nul)
    with pytest.raises(CampaignError):
        encode_rows([row(), with_nul])


def test_decode_falls_back_to_csv_reader_on_each_trigger(monkeypatch):
    """A quote, CR, LF or NUL anywhere in the line, or a line longer than
    ``csv.field_size_limit()``, sends ``decode_row`` through
    ``csv.reader``; a plain line is split without it."""
    parses = []
    reader = csv.reader

    def counting_reader(*args, **kwargs):
        parses.append(args)
        return reader(*args, **kwargs)

    monkeypatch.setattr(csv, "reader", counting_reader)
    limit = csv.field_size_limit()
    plain = row()
    assert decode_row(encode_row(plain)) == plain
    assert parses == []

    roundtrips = [
        plain._replace(benchmark='mc"f'),
        plain._replace(verdict="completed\r"),
        plain._replace(run_key="chip\n1"),
        # Longer than the limit as a line, every field within it.
        plain._replace(benchmark="b" * (limit // 2), run_key="k" * limit),
    ]
    for value in roundtrips:
        assert decode_row(encode_row(value)) == value
    assert len(parses) == len(roundtrips)

    # Built by hand: encode_row refuses a NUL.
    with_nul = plain._replace(cores="0\0")
    nul_line = ",".join(str(value) for value in with_nul)
    if sys.version_info >= (3, 11):
        assert decode_row(nul_line) == with_nul
    else:  # csv.reader rejects NUL before Python 3.11
        with pytest.raises(CampaignError):
            decode_row(nul_line)
    assert len(parses) == len(roundtrips) + 1

    # One field past the limit: csv.reader's error, typed.
    with pytest.raises(CampaignError, match="field limit"):
        decode_row(encode_row(plain._replace(run_key="k" * (limit + 1))))
    assert len(parses) == len(roundtrips) + 2


# ----------------------------------------------------------------------
# Cloud store: global run identity across campaigns and chips
# ----------------------------------------------------------------------
def keyed(run_key: str, run_id=1, rep=0, outcome="correct") -> ResultRow:
    return row(run_id=run_id, rep=rep, outcome=outcome)._replace(
        run_key=run_key)


def test_cloud_store_keeps_colliding_run_ids_across_campaigns():
    """Regression: two campaigns both start their run_id counter at 0,
    so a store keyed on (run_id, repetition) alone silently dropped the
    second campaign's rows as 'duplicates'."""
    cloud = CloudStore()
    cloud.receive(keyed("chip-A/mcf/v=900.0", run_id=0, rep=0))
    cloud.receive(keyed("chip-A/gcc/v=900.0", run_id=0, rep=0))
    assert len(cloud) == 2
    assert cloud.duplicates == 0


def test_cloud_store_keeps_colliding_run_ids_across_chips():
    cloud = CloudStore()
    cloud.receive(keyed("chip-A/mcf/v=900.0", run_id=3, rep=1))
    cloud.receive(keyed("chip-B/mcf/v=900.0", run_id=3, rep=1))
    assert len(cloud) == 2
    assert cloud.duplicates == 0


def test_cloud_store_still_dedupes_same_identity():
    cloud = CloudStore()
    cloud.receive(keyed("chip-A/mcf/v=900.0", run_id=3, rep=1))
    cloud.receive(keyed("chip-A/mcf/v=900.0", run_id=3, rep=1))
    assert len(cloud) == 1
    assert cloud.duplicates == 1


# ----------------------------------------------------------------------
# Network link stats: delivered / dropped / ack_lost accounting
# ----------------------------------------------------------------------
def test_network_delivered_counts_rows_not_retransmits():
    """Regression: delivered was incremented once per *arrival*, so lost
    acks inflated it past the row count."""
    cloud = CloudStore()
    link = NetworkLink(cloud, loss_rate=0.0, ack_loss_rate=0.4,
                       max_retries=16, seed=10)
    source = store_of(20)
    ok, failed = ResultUploader(link).upload(source)
    assert (ok, failed) == (60, 0)
    assert link.stats.delivered == 60          # once per row, exactly
    assert cloud.duplicates > 0                # retransmissions happened


def test_network_ack_loss_not_counted_as_dropped():
    """Regression: a lost ack was booked under ``dropped`` even though
    the packet arrived; it now has its own ``ack_lost`` counter."""
    cloud = CloudStore()
    link = NetworkLink(cloud, loss_rate=0.0, ack_loss_rate=0.4,
                       max_retries=16, seed=11)
    ResultUploader(link).upload(store_of(20))
    assert link.stats.dropped == 0
    assert link.stats.ack_lost > 0
    assert link.stats.attempts == link.stats.delivered + link.stats.ack_lost


# ----------------------------------------------------------------------
# Injected fault bursts (deterministic, from a FaultPlan)
# ----------------------------------------------------------------------
def test_serial_injected_corruption_burst_converges():
    from repro.core.faults import FaultBurst, FaultPlan

    plan = FaultPlan(corruption_bursts=(FaultBurst(first_row=0, rows=5,
                                                   depth=2),))
    cloud = CloudStore()
    link = SerialLink(cloud, bit_error_rate=0.0, max_retries=4, seed=12,
                      faults=plan)
    source = store_of(4)  # 12 rows; burst dooms rows 0-4 twice each
    ok, failed = ResultUploader(link).upload(source)
    assert (ok, failed) == (12, 0)
    assert link.stats.injected == 10
    assert link.stats.corrupted == 10
    assert cloud.to_store().to_csv_text() == source.to_csv_text()


def test_network_injected_loss_burst_converges():
    from repro.core.faults import FaultBurst, FaultPlan

    plan = FaultPlan(loss_bursts=(FaultBurst(first_row=3, rows=4, depth=3),))
    cloud = CloudStore()
    link = NetworkLink(cloud, loss_rate=0.0, ack_loss_rate=0.0,
                       max_retries=4, seed=13, faults=plan)
    source = store_of(4)
    ok, failed = ResultUploader(link).upload(source)
    assert (ok, failed) == (12, 0)
    assert link.stats.injected == 12  # 4 rows x 3 attempts
    assert link.stats.dropped == 12
    assert cloud.to_store().to_csv_text() == source.to_csv_text()


def test_serial_burst_deeper_than_retries_gives_up_cleanly():
    from repro.core.faults import FaultBurst, FaultPlan

    plan = FaultPlan(corruption_bursts=(FaultBurst(first_row=0, rows=1,
                                                   depth=10),))
    cloud = CloudStore()
    link = SerialLink(cloud, bit_error_rate=0.0, max_retries=2, seed=14,
                      faults=plan)
    ok, failed = ResultUploader(link).upload(store_of(1))
    assert failed == 1                      # row 0 exhausted its retries
    assert ok == 2
    assert len(cloud) == 2                  # and never polluted the store
