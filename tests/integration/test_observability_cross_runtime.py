"""Both runtimes stream the same transaction-log schema for one DAG.

The shared control plane emits every lifecycle event, and each runtime
attaches the same :class:`TransactionLogWriter` sink — so running the
same workflow on real worker processes and on the simulator must leave
behind two files with the identical header schema and the identical
*structure* of task and transfer records, differing only in wall-clock
timestamps and runtime-assigned identifiers.
"""

import os
import signal
import threading

from repro.core.control_plane import source_kind
from repro.core.library import FunctionCall
from repro.core.policy import Policy
from repro.core.task import PythonTask, Task, TaskState
from repro.observe.cli import replay_status
from repro.observe.txnlog import (
    TXN_SCHEMA_VERSION,
    load_event_log,
    read_transactions,
)
from repro.sim.cluster import SimCluster
from repro.sim.simmanager import SimManager
from tests.integration.conftest import Cluster
from tests.integration.test_service_mode import _proc_for

N_TASKS = 6


def _structure(events):
    """The runtime-independent shape of a transaction log.

    Task ids are process-global counters and worker ids are
    connection-order names, so both are normalized by order of first
    appearance before comparing across runtimes.  ``@retrieve``
    bring-backs are runtime bookkeeping (the simulator models manager
    retrieval, the real runtime streams results in-band) and excluded.
    """
    task_alias: dict[str, str] = {}
    per_task: dict[str, list[str]] = {}
    transfer_kinds: dict[str, int] = {}
    cached = 0
    for e in events:
        if e.task is not None:
            alias = task_alias.setdefault(e.task, f"t{len(task_alias)}")
            per_task.setdefault(alias, []).append(e.kind)
        if e.kind == "transfer_end" and e.category != "@retrieve":
            kind = source_kind(e.category)
            transfer_kinds[kind] = transfer_kinds.get(kind, 0) + 1
        if e.kind == "file_cached":
            cached += 1
    # recovery kinds record environment-dependent transient hiccups in
    # the real runtime (a slow fetch retried, say) and are not part of
    # the DAG's deterministic shape
    recovery = {
        "file_deleted", "transfer_failed", "task_requeued",
        "file_regenerated", "worker_blocklist", "fault_injected",
    }
    return {
        "kinds_present": sorted({e.kind for e in events} - recovery),
        "per_task": per_task,
        "transfer_kinds": transfer_kinds,
        "files_cached": cached,
        "workers_joined": len({e.worker for e in events
                               if e.kind == "worker_join"}),
    }


def _submit_dag(m, shared, submit):
    """N fan-out tasks over one shared input; returns the tasks."""
    tasks = []
    for i in range(N_TASKS):
        t = Task(f"cat data > /dev/null && echo {i}")
        t.add_input(shared, "data")
        tasks.append(t)
        submit(t)
    return tasks


def _real_txn_log(tmp_path):
    path = str(tmp_path / "real_txn.jsonl")
    c = Cluster(tmp_path, n_workers=2, txn_log_path=path)
    try:
        m = c.manager
        shared = m.declare_buffer(b"shared-dataset" * 100)
        tasks = _submit_dag(m, shared, m.submit)
        m.run_until_done(timeout=120)
        assert all(t.state == TaskState.DONE for t in tasks)
    finally:
        c.stop()  # closes the manager, flushing workflow_done
    return path


def _sim_txn_log(tmp_path):
    path = str(tmp_path / "sim_txn.jsonl")
    cluster = SimCluster()
    cluster.add_workers(2, cores=4)
    m = SimManager(cluster, txn_log_path=path)
    shared = m.declare_dataset("shared-dataset", 1400)
    tasks = _submit_dag(m, shared, lambda t: m.submit(t, duration=0.5))
    m.run()  # finalize=True closes the writer after workflow_done
    assert all(t.state == TaskState.DONE for t in tasks)
    return path


def test_real_and_sim_emit_schema_identical_transaction_logs(tmp_path):
    real_path = _real_txn_log(tmp_path)
    sim_path = _sim_txn_log(tmp_path)

    real_header, real_events = read_transactions(real_path, strict=True)
    sim_header, sim_events = read_transactions(sim_path, strict=True)

    # identical schema, distinct runtime tags
    assert real_header["v"] == sim_header["v"] == TXN_SCHEMA_VERSION
    assert real_header["fields"] == sim_header["fields"]
    assert real_header["runtime"] == "real"
    assert sim_header["runtime"] == "sim"

    # identical movement/lifecycle structure after id normalization
    real_shape = _structure(real_events)
    sim_shape = _structure(sim_events)
    assert real_shape == sim_shape

    # the shape is the one this DAG demands: every task ran start->end,
    # and the shared input reached each of the two workers exactly once
    assert real_shape["per_task"] == {
        f"t{i}": ["task_start", "task_end"] for i in range(N_TASKS)
    }
    assert real_shape["transfer_kinds"] == {"manager": 2}
    assert real_shape["workers_joined"] == 2
    assert real_events[-1].kind == sim_events[-1].kind == "workflow_done"


def test_a_finished_run_ends_the_same_way_in_both_runtimes(tmp_path):
    """The end of a workflow is the plane's (``end_workflow``): after
    the last task, one ``file_deleted`` per collected replica — the
    shared input at each of the two workers, worker by worker — then
    ``workflow_done``; replayed, no cache still holds a workflow's file."""
    for path in (_real_txn_log(tmp_path), _sim_txn_log(tmp_path)):
        header, events = read_transactions(path, strict=True)
        last_task = max(i for i, e in enumerate(events) if e.kind == "task_end")
        tail = events[last_task + 1:]
        assert [e.kind for e in tail] == ["file_deleted"] * 2 + ["workflow_done"], (
            header["runtime"]
        )
        deleted = [e.worker for e in tail[:2]]
        assert deleted == sorted(deleted) and len(set(deleted)) == 2
        status = replay_status(events, runtime=header["runtime"])
        assert status.workflow_done
        assert [w.cached_objects for w in status.workers.values()] == [0, 0]


def test_transaction_log_replays_into_event_analyses(tmp_path):
    """A log loaded from disk feeds the same analyses as the live log."""
    from repro.core.events import completion_series, makespan, task_rows

    path = _sim_txn_log(tmp_path)
    log = load_event_log(path)
    rows = task_rows(log)
    assert len(rows) == N_TASKS
    assert makespan(log) > 0
    series = completion_series(log, points=4)
    assert series[-1][1] == N_TASKS


def test_both_runtimes_populate_the_same_core_metrics(tmp_path):
    """The ControlPlane instruments fire identically under both ports."""
    # sim side
    cluster = SimCluster()
    cluster.add_workers(2, cores=4)
    sm = SimManager(cluster)
    shared = sm.declare_dataset("shared-dataset", 1400)
    _submit_dag(sm, shared, lambda t: sm.submit(t, duration=0.5))
    sm.run(finalize=False)
    sim_snap = sm.metrics.snapshot()

    # real side
    c = Cluster(tmp_path, n_workers=2)
    try:
        m = c.manager
        buf = m.declare_buffer(b"shared-dataset" * 100)
        tasks = _submit_dag(m, buf, m.submit)
        m.run_until_done(timeout=120)
        assert all(t.state == TaskState.DONE for t in tasks)
        real_snap = m.metrics.snapshot()
    finally:
        c.stop()

    for snap in (real_snap, sim_snap):
        assert snap["pump.latency_seconds"]["count"] > 0
        # hit/miss is judged per input at dispatch time, so the two
        # must account for every placement; at least the two first
        # placements (one per empty worker) cannot be local hits
        hits = snap["cache.hits"]["value"]
        misses = snap["cache.misses"]["value"]
        assert hits + misses == N_TASKS
        assert misses >= 2
        assert snap["transfers.in_flight"]["max"] >= 1
        assert snap["transfers.in_flight"]["value"] == 0


# -- the fetch plane: one implementation, one log shape -------------------

MB = 1_000_000


def _fetch_shape(events, name):
    """Fetch-plane records of one name, workers aliased by appearance."""
    alias: dict[str, str] = {}
    return [
        (e.kind, alias.setdefault(e.worker, f"w{len(alias)}"), e.category)
        for e in events
        if e.file == name
        and (e.kind == "fetch_retried" or e.category == "@fetch")
    ]


def _real_fetch_log(tmp_path):
    """Produce a replicated temp, fetch it, then fetch it again while
    the holder being asked dies mid-serve."""
    path = str(tmp_path / "real_fetch.jsonl")
    c = Cluster(tmp_path, n_workers=2, temp_replica_count=2, txn_log_path=path)
    try:
        m = c.manager
        out = m.declare_temp()
        m.submit(Task("echo kept > out").add_output(out, "out"))
        m.run_until_done(timeout=120)
        name = out.cache_name
        c.events.wait_for(
            lambda: len(m.replicas.locate(name)) == 2,
            timeout=60,
            describe="output replicated to both workers",
        )
        assert m.fetch_bytes(out) == b"kept\n"

        def asks():
            return [
                e for e in m.log.events("transfer_start")
                if e.file == name and e.category == "@fetch"
            ]

        # the plane asks the lowest worker id: freeze it so the request
        # parks there, then kill it
        proc = _proc_for(c, min(m.replicas.locate(name)))
        os.kill(proc.pid, signal.SIGSTOP)
        got = {}
        t = threading.Thread(
            target=lambda: got.__setitem__("data", m.fetch_bytes(out)),
            daemon=True,
        )
        try:
            t.start()
            c.events.wait_for(lambda: len(asks()) == 2, describe="second ask")
        finally:
            os.kill(proc.pid, signal.SIGKILL)
        t.join(timeout=60)
        assert got.get("data") == b"kept\n"
    finally:
        c.stop()
    return path, name


def _sim_fetch_log(tmp_path):
    path = str(tmp_path / "sim_fetch.jsonl")
    cluster = SimCluster()
    cluster.add_workers(2, cores=4)
    m = SimManager(cluster, Policy(temp_replica_count=2), txn_log_path=path)
    out = m.declare_temp()
    m.submit(Task("produce").add_output(out, "out"), 0.5, {"out": 10 * MB})
    m.run(finalize=False)
    m.control.pump()
    m.sim.run()  # drain the replication transfer
    name = out.cache_name
    assert len(m.replicas.locate(name)) == 2
    served = []
    m.fetch_result(name, served.append)
    m.run(finalize=False)
    asked = min(m.replicas.locate(name))
    m.fetch_result(name, served.append)
    cluster.remove_worker(asked, at=m.sim.now)  # dies mid-serve
    m.run()
    assert served[0] == asked and served[1] not in (None, asked)
    return path, name


def test_fetches_leave_the_same_records_in_both_runtimes(tmp_path):
    real_path, real_name = _real_fetch_log(tmp_path)
    sim_path, sim_name = _sim_fetch_log(tmp_path)
    _h, real_events = read_transactions(real_path, strict=True)
    _h, sim_events = read_transactions(sim_path, strict=True)
    real_shape = _fetch_shape(real_events, real_name)
    assert real_shape == _fetch_shape(sim_events, sim_name)
    assert real_shape == [
        ("transfer_start", "w0", "@fetch"),
        ("transfer_end", "w0", "@fetch"),
        ("transfer_start", "w0", "@fetch"),
        ("fetch_retried", "w0", "worker_lost"),
        ("transfer_start", "w1", "@fetch"),
        ("transfer_end", "w1", "@fetch"),
    ]
    # the retried ask is closed, not left open, in a replayed status
    assert replay_status(real_events).transfers_open == 0
    assert replay_status(sim_events).transfers_open == 0


def _double(x):
    return 2 * x


def test_real_fetches_and_retrievals_replay_as_closed_transfers(tmp_path):
    """Every ``@fetch``/``@retrieve`` end has its start, so a replayed
    status never eats a genuinely open transfer's count."""
    path = str(tmp_path / "txn.jsonl")
    c = Cluster(tmp_path, n_workers=2, txn_log_path=path)
    try:
        m = c.manager
        m.create_library("maplib", [_double], function_slots=2)
        m.install_library("maplib")
        calls = [FunctionCall("maplib", "_double", i).set_by_reference() for i in range(4)]
        value = PythonTask(_double, 21)
        for t in calls + [value]:
            m.submit(t)
        m.run_until_done(timeout=120)
        assert [t.output().resolve() for t in calls] == [0, 2, 4, 6]
        assert value.output() == 42
    finally:
        c.stop()
    header, events = read_transactions(path, strict=True)
    for category, expected in (("@fetch", len(calls)), ("@retrieve", 1)):
        starts = [e for e in events if e.kind == "transfer_start" and e.category == category]
        ends = [e for e in events if e.kind == "transfer_end" and e.category == category]
        assert len(starts) == len(ends) == expected
    assert not [e for e in events if e.kind == "fetch_retried"]
    status = replay_status(events, runtime=header["runtime"])
    assert status.transfers_open == 0
    starts = sum(e.kind == "transfer_start" for e in events)
    assert status.transfers_done == starts
