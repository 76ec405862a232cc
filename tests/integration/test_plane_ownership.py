"""Once the reactor runs, it is the only thread inside the control plane.

The product keeps no lock on plane state and checks nothing at run
time: this test does, by wrapping every public ``ControlPlane`` method
(:class:`tests.reactor_owner.PlaneEntries`) over one library-mode
workflow that uses every API call that reaches the plane — declares,
submits, a cancel, a library, ``fetch_bytes``, a ``ResultProxy``
dereference, a drain and the close.
"""

from repro.core.library import FunctionCall
from repro.core.resultref import ResultProxy
from repro.core.task import Task, TaskState
from tests.integration.conftest import Cluster
from tests.reactor_owner import PlaneEntries


def test_no_plane_method_runs_off_the_reactor(tmp_path, monkeypatch):
    entries = PlaneEntries(monkeypatch)
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
