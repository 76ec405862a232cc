"""Reactor teardown hygiene: close() under load leaks nothing.

The manager's event loop owns a selector, a wake pipe, the listener,
and one registered socket per worker; per-worker sender threads and
the reaper ride along.  Stopping a manager that still has live worker
connections — with batched notices in flight, or with workers still
registering — must unwind all of it: no stray threads, no open
descriptors, no selector keys.  Descriptor
and thread counts are compared around the whole lifecycle, so a leak
of even one connection's resources fails the test.
"""

import os
import threading
import time

from repro.core.manager import Manager
from repro.core.resources import Resources
from repro.core.task import Task
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
    workers = [ScriptedWorker(m.host, m.port, batch_delay=0.05) for _ in range(8)]
    deadline = time.time() + 10
    while len(m.workers) < len(workers) and time.time() < deadline:
        time.sleep(0.01)
    assert len(m.workers) == len(workers)

    # keep traffic flowing: completions and batched cache updates are
    # mid-flight when close() lands (0.05s batch windows ensure some
    # notices are still queued worker-side)
    for i in range(40):
        t = Task("noop")
        t.add_output(m.declare_temp(), "out")
        m.submit(t)
    time.sleep(0.05)  # mid-drain, not after it: close under live load

    assert m._reactor_thread.is_alive()
    assert m._sel.get_map()  # live worker registrations

    m.close(shutdown_workers=True)

    # selector fully unregistered and closed
    try:
        live_keys = list(m._sel.get_map() or ())
    except (RuntimeError, KeyError):
        live_keys = []  # closed selectors may refuse get_map entirely
    assert not live_keys
    assert not m._reactor_thread.is_alive()

    for w in workers:
        w.close(timeout=5)
    del m, workers

    _assert_nothing_leaked(baseline_threads, baseline_fds)


def test_workers_registering_during_close_leave_nothing_behind(monkeypatch):
    """close() snapshots the handles it will release while it sets
    ``closed`` under the lock; a worker whose REGISTER the reactor is
    processing at that moment must be refused, or its sender thread and
    socket outlive the manager.  The GC step runs inside that locked
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

    monkeypatch.setattr("repro.core.manager.collect_workflow", register_mid_close)
    m.close()
    assert not m.workers
    for conn in conns:
        conn.close()
    del m, conns

    _assert_nothing_leaked(baseline_threads, baseline_fds)
