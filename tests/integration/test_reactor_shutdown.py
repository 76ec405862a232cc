"""Reactor teardown hygiene: close() under load leaks nothing.

The manager's event loop owns a selector, a wake pipe, the listener,
one registered socket per worker and every timer; it is the only thread
the manager has.  Stopping a manager that still has live worker
connections — with replies in flight, or with workers still
registering — must unwind all of it: no stray threads, no open
descriptors, no selector keys.  Descriptor
and thread counts are compared around the whole lifecycle, so a leak
of even one connection's resources fails the test.
"""

import os
import socket
import struct
import threading
import time

from repro.core.manager import Manager
from repro.core.policy import Policy
from repro.core.resources import Resources
from repro.core.task import Task, TaskState
from repro.protocol.connection import Connection
from repro.protocol.messages import M
from repro.worker.scripted import ScriptedWorker


def _fd_count():
    return len(os.listdir("/proc/self/fd"))


def _wait_threads_settle(baseline, timeout=10.0):
    """Wait for the thread population to fall back to the baseline."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        extra = set(threading.enumerate()) - baseline
        if not extra:
            return []
        time.sleep(0.05)
    return sorted(t.name for t in set(threading.enumerate()) - baseline)


def _assert_nothing_leaked(baseline_threads, baseline_fds):
    leftovers = _wait_threads_settle(baseline_threads)
    assert not leftovers, f"threads leaked past close(): {leftovers}"
    # descriptor population returns to the baseline: listener, wake
    # pipe, selector fd, and one socket per worker are all gone
    deadline = time.time() + 10
    while _fd_count() > baseline_fds and time.time() < deadline:
        time.sleep(0.05)
    assert _fd_count() <= baseline_fds


def test_reactor_shutdown_releases_threads_and_fds():
    baseline_threads = set(threading.enumerate())
    baseline_fds = _fd_count()

    m = Manager(worker_liveness_timeout=None)
    workers = [ScriptedWorker(m.host, m.port) for _ in range(8)]
    deadline = time.time() + 10
    while len(m.workers) < len(workers) and time.time() < deadline:
        time.sleep(0.01)
    assert len(m.workers) == len(workers)

    # keep traffic flowing: dispatches and completions are mid-flight
    # when close() lands
    for i in range(40):
        t = Task("noop")
        t.add_output(m.declare_temp(), "out")
        m.submit(t)
    time.sleep(0.05)  # mid-drain, not after it: close under live load

    assert m.reactor.running
    assert len(m.reactor.peers) == len(workers)  # live worker registrations

    m.close(shutdown_workers=True)

    # every peer released, the selector closed, the loop gone
    assert not m.reactor.peers
    try:
        live_keys = list(m.reactor._sel.get_map() or ())
    except (RuntimeError, KeyError):
        live_keys = []  # closed selectors may refuse get_map entirely
    assert not live_keys
    assert not m.reactor.running

    for w in workers:
        w.close(timeout=5)
    del m, workers

    _assert_nothing_leaked(baseline_threads, baseline_fds)


def test_workers_registering_during_close_leave_nothing_behind(monkeypatch):
    """close() snapshots the handles it will release while it sets
    ``closed`` under the lock; a worker whose REGISTER the reactor is
    processing at that moment must be refused, or it is admitted to a
    control plane that has already said its farewells.  The GC step runs inside that locked
    section, so it is the hook that lands registrations exactly there."""
    baseline_threads = set(threading.enumerate())
    baseline_fds = _fd_count()

    m = Manager(worker_liveness_timeout=None)
    conns = [Connection.connect(m.host, m.port) for _ in range(4)]
    time.sleep(0.2)  # accepted; the reactor is idle in select()

    def register_mid_close(registry, replicas):
        for conn in conns:
            conn.send_message(
                {
                    "type": M.REGISTER,
                    "capacity": Resources(cores=1).to_dict(),
                    "transfer_port": 1,
                }
            )
        time.sleep(0.3)  # the reactor reads REGISTER, then waits on the lock
        return {}

    monkeypatch.setattr("repro.core.control_plane.collect_workflow", register_mid_close)
    m.close()
    assert not m.workers
    for conn in conns:
        conn.close()
    del m, conns

    _assert_nothing_leaked(baseline_threads, baseline_fds)


def _wait_for(predicate, what, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.01)


def _owned_threads(baseline, workers):
    """Threads the manager started: everything new that is not one of
    the in-process scripted workers' own — one each, its reader."""
    new = set(threading.enumerate()) - baseline
    theirs = {w._thread for w in workers}
    assert len(theirs) == len(workers) and theirs <= new
    return new - theirs


def test_the_manager_owns_one_thread_whatever_the_fleet(tmp_path):
    """Back-off wakes pending, the liveness sweep armed and the metrics
    dump on: all of them are deadlines of the one loop, and a peer is a
    FIFO, so 8 workers and 64 cost the same — one thread."""
    counts = {}
    for n in (8, 64):
        baseline = set(threading.enumerate())
        m = Manager(metrics_dump_path=str(tmp_path / f"metrics-{n}.json"))
        workers = [ScriptedWorker(m.host, m.port) for _ in range(n)]
        try:
            _wait_for(lambda: len(m.workers) == n, f"{n} registrations")
            m.schedule_pump(30.0)
            m.schedule_pump(45.0)
            for _ in range(2 * n):
                t = Task("noop")
                t.add_output(m.declare_temp(), "out")
                m.submit(t)
            assert len(m.run_until_done(timeout=60.0)) == 2 * n
            owned = _owned_threads(baseline, workers)
            assert owned == {m.reactor.thread}, sorted(t.name for t in owned)
            counts[n] = len(owned)
        finally:
            m.close()
            for w in workers:
                w.close(timeout=5)
        assert (tmp_path / f"metrics-{n}.json").exists()  # written at close
    assert counts == {8: 1, 64: 1}


def test_a_worker_whose_death_is_first_seen_on_a_write_still_leaves():
    """A worker that never reads has a 64 MiB push parked on its
    socket when it dies with a reset, while an application thread holds
    the state lock (as ``declare_local`` does while hashing).  Whichever
    of the write and the read notices first, the worker leaves the
    control plane and its task goes back to the queue."""
    m = Manager(worker_liveness_timeout=None)
    conn = Connection.connect(m.host, m.port)
    try:
        conn.send_message(
            {
                "type": M.REGISTER,
                "capacity": Resources(cores=1).to_dict(),
                "transfer_port": 1,
            }
        )
        _wait_for(lambda: len(m.workers) == 1, "the registration")
        (wid,) = m.workers
        size = 64 << 20
        task = Task("cat big")
        task.add_input(m.declare_buffer(bytes(size)), "big")
        m.submit(task)
        # dispatched, and the push stuck against a full socket
        _wait_for(lambda: task.state == TaskState.DISPATCHED, "the placement")
        _wait_for(lambda: 0 < m.reactor.queued_bytes < size, "a blocked write")
        with m._lock:
            conn.sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            conn.sock.close()  # RST, not FIN
            time.sleep(0.3)  # the loop has seen it and waits for the lock
        _wait_for(
            lambda: wid not in m.workers and wid not in m.control.workers,
            "the dead worker to leave", timeout=2.0,
        )
        _wait_for(lambda: task.state == TaskState.READY, "the requeue", timeout=2.0)
        assert [e.worker for e in m.log.events("worker_leave")] == [wid]
        assert m.reactor.queued_bytes == 0
    finally:
        m.close()


def test_a_source_that_cannot_be_read_fails_its_transfer_not_the_worker(tmp_path):
    """``declare_local`` a file, delete it, then ask for it: the push
    cannot be opened.  That is a failed transfer — retried, backed off
    and finally given up on by the control plane's rules, the consumer
    failing with the reason — while the worker goes on taking commands."""
    path = tmp_path / "vanishing.bin"
    path.write_bytes(b"soon gone" * 100)
    m = Manager(policy=Policy(transfer_backoff_base=0.02))
    worker = ScriptedWorker(m.host, m.port)
    try:
        _wait_for(lambda: len(m.workers) == 1, "the registration")
        f = m.declare_local(str(path))
        path.unlink()
        consumer = Task("cat input")
        consumer.add_input(f, "input")
        free = Task("true")
        m.submit(consumer)
        m.submit(free)
        finished = m.run_until_done(timeout=30.0)
        assert {t.task_id for t in finished} == {consumer.task_id, free.task_id}
        assert free.state == TaskState.DONE
        assert consumer.state == TaskState.FAILED
        assert str(path) in consumer.result.failure
        assert "No such file" in consumer.result.failure
        failed = m.log.events("transfer_failed")
        assert len(failed) == m.control.policy.transfer_retries + 1
        assert len(m.workers) == 1 and not m.log.events("worker_leave")
        # and the channel still works afterwards
        again = Task("true")
        m.submit(again)
        assert [t.task_id for t in m.run_until_done(timeout=30.0)] == [again.task_id]
    finally:
        m.close()
        worker.close(timeout=5)
