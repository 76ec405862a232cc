"""Once the reactor runs, it is the only thread inside the control plane
and inside the reactor's own state.

The product keeps no lock on either and checks nothing at run time:
these tests do.  They wrap every public ``ControlPlane`` method
(:class:`tests.reactor_owner.PlaneEntries`) and every queued frame,
close and timer-heap change (:class:`tests.reactor_owner.LoopOnly`)
over one library-mode workflow that uses every API call that reaches
the plane — declares, submits, a cancel, a library, ``fetch_bytes``, a
``ResultProxy`` dereference, a drain and the close — and over one
service-mode client session.
"""

import pytest

from repro.core.library import FunctionCall
from repro.core.resultref import ResultProxy
from repro.core.task import Task, TaskState
from repro.service.client import ClientError, ServiceClient
from tests.integration.conftest import Cluster
from tests.reactor_owner import LoopOnly, PlaneEntries


def test_no_plane_method_runs_off_the_reactor(tmp_path, monkeypatch):
    entries = PlaneEntries(monkeypatch)
    loop_only = LoopOnly(monkeypatch)
    c = Cluster(tmp_path, n_workers=2)
    try:
        m = c.manager
        data = m.declare_buffer(b"owned by one thread")
        out = m.declare_temp()
        copy = Task("cat in > out").add_input(data, "in")
        copy.add_output(out, "out")
        m.submit(copy)

        def triple(x):
            return 3 * x

        m.create_library("owned", [triple])
        m.install_library("owned")
        m.set_tenant_quota("default", task_quota=64)
        call = FunctionCall("owned", "triple", 14).set_by_reference()
        m.submit(call)
        doomed = Task("sleep 30")
        m.submit(doomed)
        assert m.cancel(doomed)
        finished = m.run_until_done(timeout=120)
        assert {t.task_id for t in finished} == {
            copy.task_id, call.task_id, doomed.task_id
        }
        assert copy.state == call.state == TaskState.DONE
        assert doomed.state == TaskState.CANCELLED
        assert m.fetch_bytes(out) == b"owned by one thread"
        proxy = call.output()
        assert isinstance(proxy, ResultProxy) and proxy.resolve() == 42
        victim = sorted(m.workers)[0]
        assert m.drain_worker(victim)
        assert not m.drain_worker(victim)  # already draining
        assert m.empty()
    finally:
        c.stop()
    assert entries.off_owner == []
    for name in (
        "declare", "submit", "cancel", "install_library", "set_tenant_quota",
        "fetch", "drain_worker", "end_workflow",
    ):
        assert entries.counts[name], name
    assert loop_only.off_loop == []
    for name in ("_enqueue", "heappush"):
        assert loop_only.counts[name], name


def test_a_service_session_touches_the_reactor_only_on_its_loop(tmp_path, monkeypatch):
    entries = PlaneEntries(monkeypatch)
    loop_only = LoopOnly(monkeypatch)
    c = Cluster(tmp_path, n_workers=1, password="pw")
    try:
        m = c.manager
        # armed from this thread while the loop runs, as the service
        # daemon arms its autoscaler
        ticks = []
        m.reactor.call_later(0.0, lambda: ticks.append(1), every=0.01)
        with ServiceClient(m.host, m.port, "alice", password="pw") as client:
            name = client.declare_buffer(b"one loop\n")["cache_name"]
            accepted = client.submit(
                "cat in.txt > out.txt", inputs=[("in.txt", name)], outputs=["out.txt"]
            )
            results = client.run_until_done(timeout=60)
            assert [r["exit_code"] for r in results] == [0]
            assert client.fetch(accepted["outputs"]["out.txt"], timeout=60) == b"one loop\n"
        # a wrong password is refused by the connection's last frame
        with pytest.raises(ClientError):
            ServiceClient(m.host, m.port, "mallory", password="nope")
        c.events.wait_for(
            lambda: len(ticks) > 1, timeout=10, describe="the timer to repeat"
        )
    finally:
        c.stop()
    assert entries.off_owner == []
    assert loop_only.off_loop == []
    for name in ("_enqueue", "_doom", "heappush"):
        assert loop_only.counts[name], name
