"""The transaction log round-trips the event stream exactly."""

import json

import pytest

from repro.core.events import KINDS, Event, EventLog
from repro.observe.txnlog import (
    HEADER_KIND,
    TXN_SCHEMA_VERSION,
    TransactionLogError,
    TransactionLogWriter,
    event_to_record,
    load_event_log,
    read_transactions,
    record_to_event,
)


def _sample_events():
    return [
        Event(0.0, "worker_join", worker="w0"),
        Event(0.5, "transfer_start", worker="w0", file="f1", size=1000,
              category="manager"),
        Event(1.5, "transfer_end", worker="w0", file="f1", size=1000,
              category="manager"),
        Event(1.6, "file_cached", worker="w0", file="f1", size=1000),
        Event(2.0, "task_start", worker="w0", task="t1", category="analyze"),
        Event(7.0, "task_end", worker="w0", task="t1", category="analyze"),
        Event(8.0, "file_deleted", worker="w0", file="f1", size=1000,
              category="evicted"),
        Event(9.0, "library_ready", worker="w0", category="lib"),
        Event(9.5, "library_failed", worker="w0", category="lib"),
        Event(10.0, "worker_leave", worker="w0"),
        Event(11.0, "workflow_done"),
    ]


def test_record_round_trip_preserves_every_field():
    for event in _sample_events():
        assert record_to_event(event_to_record(event)) == event


def test_writer_then_reader_yields_identical_events(tmp_path):
    path = str(tmp_path / "txn.jsonl")
    events = _sample_events()
    with TransactionLogWriter(path, runtime="test") as writer:
        for event in events:
            writer(event)
    header, parsed = read_transactions(path)
    assert header["v"] == TXN_SCHEMA_VERSION
    assert header["runtime"] == "test"
    assert parsed == events


def test_writer_as_event_log_sink(tmp_path):
    path = str(tmp_path / "txn.jsonl")
    log = EventLog()
    writer = TransactionLogWriter(path, runtime="test")
    log.attach(writer)
    log.emit(1.0, "worker_join", worker="w0")
    log.emit(2.0, "workflow_done")
    writer.close()
    rebuilt = load_event_log(path)
    assert list(rebuilt) == list(log)
    # a log read back tallies its kinds as the live one did
    assert rebuilt.counts() == log.counts() == {"worker_join": 1, "workflow_done": 1}


def test_the_tally_counts_each_kind_and_refuses_an_unknown_one():
    log = EventLog()
    assert log.count("task_requeued") == 0
    log.emit(1.0, "task_requeued", task="t1")
    log.emit(2.0, "task_requeued", task="t1")
    tally = log.counts()
    log.emit(3.0, "memo_hit")
    assert tally == {"task_requeued": 2}  # a copy, not a view
    assert log.count("task_requeued") == 2 and log.count("memo_hit") == 1
    with pytest.raises(ValueError):
        log.count("task_requeue")  # a misspelt kind does not read 0


def test_header_line_is_first_and_versioned(tmp_path):
    path = str(tmp_path / "txn.jsonl")
    TransactionLogWriter(path, runtime="sim").close()
    first = json.loads(open(path).readline())
    assert first["kind"] == HEADER_KIND
    assert first["v"] == TXN_SCHEMA_VERSION
    assert first["runtime"] == "sim"


def test_extra_header_fields_survive(tmp_path):
    path = str(tmp_path / "txn.jsonl")
    TransactionLogWriter(path, runtime="sim", extra_header={"run": "abc"}).close()
    header, _events = read_transactions(path)
    assert header["run"] == "abc"


def test_torn_final_line_tolerated_but_strict_rejects(tmp_path):
    path = str(tmp_path / "txn.jsonl")
    with TransactionLogWriter(path, runtime="test") as writer:
        writer(Event(1.0, "worker_join", worker="w0"))
    with open(path, "a") as f:
        f.write('{"t": 2.0, "kind": "task_')  # crash mid-write
    _header, events = read_transactions(path)
    assert [e.kind for e in events] == ["worker_join"]
    with pytest.raises(TransactionLogError):
        read_transactions(path, strict=True)


def test_corruption_followed_by_data_always_raises(tmp_path):
    path = str(tmp_path / "txn.jsonl")
    with TransactionLogWriter(path, runtime="test") as writer:
        writer(Event(1.0, "worker_join", worker="w0"))
    with open(path, "a") as f:
        f.write("not json at all\n")
        f.write('{"t": 2.0, "kind": "worker_leave", "worker": "w0"}\n')
    with pytest.raises(TransactionLogError):
        read_transactions(path)


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "txn.jsonl"
    path.write_text('{"t": 1.0, "kind": "worker_join", "worker": "w0"}\n')
    with pytest.raises(TransactionLogError, match="header"):
        read_transactions(str(path))


def test_future_schema_version_rejected(tmp_path):
    path = tmp_path / "txn.jsonl"
    path.write_text(json.dumps({"kind": HEADER_KIND, "v": 999}) + "\n")
    with pytest.raises(TransactionLogError, match="version"):
        read_transactions(str(path))


def test_unknown_kind_rejected():
    with pytest.raises(TransactionLogError, match="kind"):
        record_to_event({"t": 1.0, "kind": "no_such_kind"})


def test_every_declared_kind_round_trips():
    for kind in sorted(KINDS):
        event = Event(3.0, kind, worker="w0")
        assert record_to_event(event_to_record(event)) == event


def test_writer_after_close_is_noop(tmp_path):
    path = str(tmp_path / "txn.jsonl")
    writer = TransactionLogWriter(path, runtime="test")
    writer.close()
    writer(Event(1.0, "worker_join", worker="w0"))  # must not raise
    _header, events = read_transactions(path)
    assert events == []


# ----------------------------------------------------------------------
# multi-segment logs: a recovering manager appends a new @header
# ----------------------------------------------------------------------


def test_resumed_writer_appends_a_segment(tmp_path):
    path = str(tmp_path / "txn.jsonl")
    with TransactionLogWriter(path, runtime="test") as w:
        w(Event(1.0, "task_start", task="t1"))
    with TransactionLogWriter(path, runtime="test", resume=True) as w:
        w(Event(0.5, "manager_restart"))
        w(Event(1.0, "task_end", task="t1"))

    header, events = read_transactions(path)
    # both lives' events read back in file order, across the new header
    assert [e.kind for e in events] == ["task_start", "manager_restart", "task_end"]
    assert header["segments"] == 2
    assert header["torn_lines"] == 0
    # strict mode accepts clean multi-segment files
    header, _ = read_transactions(path, strict=True)
    assert header["segments"] == 2


def test_truncated_log_before_a_resume_segment_is_forgiven(tmp_path):
    """The crash signature: the dying life tore its final line, then the
    next life appended a fresh @header segment right after it."""
    path = str(tmp_path / "txn.jsonl")
    with TransactionLogWriter(path, runtime="test") as w:
        w(Event(1.0, "task_start", task="t1"))
    with open(path, "a") as f:
        f.write('{"t": 2.0, "kind": "task_en')  # kill -9 mid-write
    with TransactionLogWriter(path, runtime="test", resume=True) as w:
        w(Event(0.5, "manager_restart"))

    header, events = read_transactions(path)
    assert [e.kind for e in events] == ["task_start", "manager_restart"]
    assert header["segments"] == 2
    assert header["torn_lines"] == 1
    assert header["resumed"] is True  # the latest segment's header wins
    # strict readers still refuse any tear
    with pytest.raises(TransactionLogError):
        read_transactions(path, strict=True)


def test_torn_line_mid_segment_followed_by_data_raises(tmp_path):
    # forgiveness is only for the line directly before a segment header
    # (crash) or the final line (live tail) — not for arbitrary holes
    path = str(tmp_path / "txn.jsonl")
    with TransactionLogWriter(path, runtime="test") as w:
        w(Event(1.0, "task_start", task="t1"))
    with open(path, "a") as f:
        f.write('{"t": 2.0, "kind": "task_en\n')
        f.write('{"t": 3.0, "kind": "task_end", "task": "t1"}\n')
    with pytest.raises(TransactionLogError):
        read_transactions(path)


def test_resume_onto_missing_file_starts_a_fresh_log(tmp_path):
    path = str(tmp_path / "txn.jsonl")
    with TransactionLogWriter(path, runtime="test", resume=True) as w:
        w(Event(1.0, "worker_join", worker="w0"))
    header, events = read_transactions(path)
    assert header["segments"] == 1
    assert [e.kind for e in events] == ["worker_join"]
