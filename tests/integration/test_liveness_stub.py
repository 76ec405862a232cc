"""Worker liveness reaping against a pinned clock — no real waiting.

A stub "worker" registers over a raw protocol connection and then goes
completely silent (no heartbeat thread).  Rather than sleeping past the
timeout, the reaper's clock-dependent halves (:meth:`Manager._find_stale`
and :meth:`Manager._reap_stale`) are driven with explicit ``now``
values, so the whole silent-worker story runs in milliseconds.
"""

import time

from repro.core.manager import Manager
from repro.core.resources import Resources
from repro.core.task import Task
from repro.protocol.connection import Connection
from repro.protocol.messages import M
from repro.worker.scripted import ScriptedWorker
from tests.integration.conftest import EventWaiter
from tests.reactor_owner import on_reactor


def _register_stub(manager, events):
    conn = Connection.connect(manager.host, manager.port)
    conn.send_message(
        {
            "type": M.REGISTER,
            "capacity": Resources(cores=2, memory=500, disk=500).to_dict(),
            "transfer_port": 1,  # never contacted: the stub serves nothing
            "cached": [],
        }
    )
    events.wait_event("worker_join", timeout=10)
    return conn


def test_silent_worker_is_reaped_at_the_timeout_boundary(tmp_path):
    m = Manager(worker_liveness_timeout=60.0)
    events = EventWaiter(m)
    try:
        stub = _register_stub(m, events)
        wid = next(iter(m.workers))
        joined_at = m.workers[wid].last_seen
        # just inside the timeout: still considered alive
        assert on_reactor(m, m._find_stale, joined_at + 59.9) == []
        assert on_reactor(m, m._reap_stale, joined_at + 59.9) == []
        assert wid in m.workers
        # just past it: found, declared dead, connection closed
        assert on_reactor(m, m._find_stale, joined_at + 60.1) != []
        assert on_reactor(m, m._reap_stale, joined_at + 60.1) == [wid]
        # the receive path unwinds the closed socket into worker_leave
        events.wait_event("worker_leave", lambda e: e.worker == wid, timeout=10)

        def removed():
            return wid not in m.workers

        events.wait_for(removed, timeout=10, describe="reaped worker removal")
        leaves = m.log.events("worker_leave")
        assert [e.worker for e in leaves] == [wid]
        # reaping is idempotent: the handle is gone, nothing left to find
        assert on_reactor(m, m._find_stale, joined_at + 120.0) == []
        stub.close()
    finally:
        m.close()


def test_traffic_refreshes_liveness(tmp_path):
    m = Manager(worker_liveness_timeout=60.0)
    events = EventWaiter(m)
    try:
        stub = _register_stub(m, events)
        wid = next(iter(m.workers))
        handle = m.workers[wid]
        # age the handle past the deadline: it is reapable right now
        handle.last_seen -= 120.0
        aged = handle.last_seen
        assert on_reactor(m, m._find_stale, time.monotonic()) == [handle]
        # any message — here a bare heartbeat — resets the silence clock;
        # no transaction-log event marks it, so this wait leans on the
        # waiter's fallback re-check rather than an event wakeup
        stub.send_message({"type": M.HEARTBEAT})
        events.wait_for(
            lambda: handle.last_seen > aged, timeout=10,
            describe="heartbeat refreshing last_seen",
        )
        assert on_reactor(m, m._reap_stale, time.monotonic()) == []  # deadline defused
        assert wid in m.workers
        stub.close()
    finally:
        m.close()


def test_a_wall_clock_step_reaps_no_live_worker(monkeypatch):
    """Liveness, session expiry and the manager's stamps read the
    monotonic clock: the wall clock stepping an hour forward (an NTP
    correction, a resumed VM) declares no live worker dead."""
    m = Manager(worker_liveness_timeout=60.0)
    events = EventWaiter(m)
    fleet = [ScriptedWorker(m.host, m.port) for _ in range(3)]
    try:
        events.wait_for(lambda: len(m.workers) == 3, timeout=10, describe="3 joins")
        before = m.now()
        wall = time.time
        monkeypatch.setattr(time, "time", lambda: wall() + 3600.0)
        on_reactor(m, m._liveness_sweep)
        assert len(m.workers) == 3
        assert m.now() - before < 60.0
        task = Task("noop")
        m.submit(task)
        assert [t.task_id for t in m.run_until_done(timeout=30)] == [task.task_id]
        assert m.log.events("worker_leave") == []
    finally:
        for w in fleet:
            w.close()
        m.close()
