"""``repro-status`` replays a transaction log into a world state."""

import json

from repro.core.events import Event
from repro.observe.cli import format_log_status, main, replay_status
from repro.observe.txnlog import TransactionLogWriter


def _events():
    return [
        Event(0.0, "worker_join", worker="w0"),
        Event(0.0, "worker_join", worker="w1"),
        Event(0.5, "transfer_start", worker="w0", file="f1", size=1000,
              category="@manager"),
        Event(1.0, "transfer_end", worker="w0", file="f1", size=1000,
              category="@manager"),
        Event(1.0, "file_cached", worker="w0", file="f1", size=1000),
        Event(1.5, "task_start", worker="w0", task="t1"),
        Event(2.0, "task_start", worker="w1", task="t2"),
        Event(3.0, "task_end", worker="w0", task="t1"),
        Event(3.5, "library_ready", worker="w1", category="mylib"),
    ]


def test_replay_midstream_state():
    st = replay_status(_events(), runtime="sim")
    assert st.workers_connected == 2
    assert st.tasks_running == 1  # t2 still open
    assert st.tasks_done == 1
    assert st.transfers_open == 0
    assert st.transfers_done == 1
    assert st.bytes_by_kind == {"manager": 1000}
    assert st.workers["w0"].cached_objects == 1
    assert st.workers["w0"].cached_bytes == 1000
    assert st.libraries_ready == {"mylib": 1}
    assert not st.workflow_done


def test_replay_worker_leave_drops_its_tasks():
    events = _events() + [
        Event(4.0, "worker_leave", worker="w1"),
        Event(5.0, "workflow_done"),
    ]
    st = replay_status(events)
    assert st.workers_connected == 1
    assert st.tasks_running == 0  # w1's open task fell with the worker
    assert st.workflow_done


def test_format_mentions_the_essentials():
    text = format_log_status(replay_status(_events(), runtime="sim"))
    assert "runtime sim" in text
    assert "1 running, 1 done" in text
    assert "workers connected: 2" in text
    assert "mylib:1" in text


def _chaos_events():
    return _events() + [
        Event(4.0, "fault_injected", worker="w1", category="crash"),
        Event(4.0, "fault_injected", worker="w0", file="f2",
              category="transfer_corrupt"),
        Event(4.1, "worker_leave", worker="w1"),
        Event(4.1, "transfer_failed", worker="w0", file="f2", size=1,
              category="w1"),
        Event(4.2, "task_requeued", task="t2"),
        Event(4.3, "file_regenerated", file="f2", task="t1"),
        Event(4.4, "worker_blocklist", worker="w1"),
    ]


def test_replay_folds_faults_and_recovery():
    st = replay_status(_chaos_events(), runtime="sim")
    assert st.faults_by_category == {"crash": 1, "transfer_corrupt": 1}
    assert st.faults_injected == 2
    assert st.transfers_failed == 1
    assert st.tasks_requeued == 1
    assert st.files_regenerated == 1
    assert st.workers_blocklisted == 1


def test_format_renders_chaos_section_only_when_present():
    quiet = format_log_status(replay_status(_events(), runtime="sim"))
    assert "faults injected" not in quiet
    assert "recovery:" not in quiet
    chaos = format_log_status(replay_status(_chaos_events(), runtime="sim"))
    assert "faults injected: 2 (crash:1  transfer_corrupt:1)" in chaos
    assert (
        "recovery: 1 failed transfers, 1 requeues, "
        "1 regenerations, 1 blocklisted" in chaos
    )


def test_cli_renders_a_log_file(tmp_path, capsys):
    path = str(tmp_path / "txn.jsonl")
    with TransactionLogWriter(path, runtime="sim") as writer:
        for e in _events():
            writer(e)
    assert main([path]) == 0
    out = capsys.readouterr().out
    assert "runtime sim" in out
    assert "workers connected: 2" in out


def test_cli_renders_metrics_snapshot(tmp_path, capsys):
    path = str(tmp_path / "txn.jsonl")
    with TransactionLogWriter(path, runtime="real") as writer:
        for e in _events():
            writer(e)
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps({
        "dumped_at": 0,
        "metrics": {
            "cache.hits": {"type": "counter", "value": 5},
            "queue.ready_depth": {"type": "gauge", "value": 7, "max": 9},
            "queue.parked": {"type": "gauge", "value": 4, "max": 4},
            "journal.records": {"type": "counter", "value": 90},
            "journal.fsyncs": {"type": "counter", "value": 20},
            "cache.index_writes": {"type": "counter", "value": 3},
            "cache.objects": {"type": "gauge", "value": 41, "max": 50},
            "pump.latency_seconds": {
                "type": "histogram", "count": 4, "sum": 0.4, "min": 0.05,
                "max": 0.2, "mean": 0.1, "p50": 0.1, "p90": 0.2, "p99": 0.2,
            },
        },
    }))
    assert main([path, "--metrics", str(metrics)]) == 0
    out = capsys.readouterr().out
    assert "cache.hits" in out
    assert "queue.ready_depth" in out
    # "why was it not placed?": capacity vs. inputs still being produced
    assert (
        "queue: 7 ready = 3 waiting for capacity + "
        "4 parked on inputs not produced yet"
    ) in out
    assert "pump.latency_seconds" in out
    # "what is the loop spending on disk?": group commit and index writes
    assert "journal: 90 records in 20 fsyncs (4.5 per sync)" in out
    assert "cache index: 3 writes (41 objects cached)" in out


def test_cli_missing_file_is_an_error(tmp_path, capsys):
    assert main([str(tmp_path / "nope.jsonl")]) == 1
    assert "repro-status" in capsys.readouterr().err
