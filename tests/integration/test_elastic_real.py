"""Elastic membership for the real multi-process runtime.

Workers joining mid-run must pick up queued work; a gracefully
draining worker must see its sole-holder cache objects land on
survivors *before* its socket closes — asserted from the transaction
log via the :class:`EventWaiter` fixture machinery, in the order the
drain protocol promises: ``worker_drain``, migration transfers,
``worker_drained``, and only then ``worker_leave``.  The drain is
exercised both manager-initiated (``Manager.drain_worker``) and
worker-announced (a ``draining`` wire message from a fault config's
``drain_at`` timer).
"""

from repro.core.task import Task, TaskState
from repro.faults import FaultPlan, worker_fault_configs
from tests.integration.conftest import Cluster

N_STAGE = 4


def _produce(m, n=N_STAGE):
    """Producers writing distinct temps; each lives on one worker only
    (temp_replica_count=1), so every output starts as a sole holder."""
    temps, tasks = [], []
    for i in range(n):
        temp = m.declare_temp()
        t = Task(f"echo payload-{i} > out").add_output(temp, "out")
        m.submit(t)
        temps.append(temp)
        tasks.append(t)
    m.run_until_done(timeout=120)
    assert all(t.state == TaskState.DONE for t in tasks)
    return temps


def _cached_at(events, stop_index):
    """Per-worker cached sets replayed from the log prefix [0, stop)."""
    held: dict[str, set] = {}
    for e in events[:stop_index]:
        if e.kind == "file_cached":
            held.setdefault(e.worker, set()).add(e.file)
        elif e.kind == "file_deleted":
            held.get(e.worker, set()).discard(e.file)
        elif e.kind == "worker_leave":
            held.pop(e.worker, None)
    return held


def test_worker_joining_mid_run_picks_up_work(tmp_path):
    cluster = Cluster(tmp_path, n_workers=1)
    try:
        m = cluster.manager
        tasks = []
        for i in range(24):
            t = Task("sleep 0.4")
            m.submit(t)
            tasks.append(t)
        # the queue is deeper than one worker drains before a second
        # process can be spawned and registered (≈ 1 s here): reinforce
        cluster.start_worker("late", cores=4)
        cluster.wait_workers(2)
        with m._lock:
            joined = sorted(m.workers)
        m.run_until_done(timeout=120)
        assert all(t.state == TaskState.DONE for t in tasks)
        events = m.log.events()
        late_join = max(
            e.time for e in events if e.kind == "worker_join"
        )
        late_worker = next(
            e.worker for e in events
            if e.kind == "worker_join" and e.time == late_join
        )
        assert late_worker in joined
        assert any(
            e.kind == "task_start" and e.worker == late_worker
            for e in events
        ), "the late worker never received work"
    finally:
        cluster.stop()


def test_manager_drain_migrates_replicas_before_departure(tmp_path):
    cluster = Cluster(tmp_path, n_workers=2)
    try:
        m = cluster.manager
        temps = _produce(m)
        with m._lock:
            holdings = {
                wid: set(m.control.replicas.holdings(wid))
                for wid in m.control.workers
            }
        victim = max(holdings, key=lambda wid: (len(holdings[wid]), wid))
        assert holdings[victim], "the victim must hold cache objects"

        assert m.drain_worker(victim)
        cluster.events.wait_event(
            "worker_drained", lambda e: e.worker == victim, timeout=30
        )
        cluster.events.wait_event(
            "worker_leave", lambda e: e.worker == victim, timeout=30
        )

        events = m.log.events()
        drained = next(
            e for e in events
            if e.kind == "worker_drained" and e.worker == victim
        )
        leave_index = next(
            i for i, e in enumerate(events)
            if e.kind == "worker_leave" and e.worker == victim
        )
        assert drained.category is None, "nothing may be stranded"
        # before the socket closed, every object the victim held was
        # already backed on a survivor
        held = _cached_at(events, leave_index)
        survivors = set().union(
            *(held.get(w, set()) for w in held if w != victim)
        ) if len(held) > 1 else set()
        orphaned = held.get(victim, set()) - survivors
        assert not orphaned, f"sole-holder objects lost to the drain: {orphaned}"
        # and the data plane agrees: every temp is still fetchable
        for i, temp in enumerate(temps):
            assert m.fetch_bytes(temp) == f"payload-{i}\n".encode()
        assert m.metrics.counter("recovery.regenerations").value == 0
        assert m.metrics.counter("elastic.drain_objects_stranded").value == 0
    finally:
        cluster.stop()


def test_worker_announced_drain_completes(tmp_path):
    plan = FaultPlan(seed=0).drain("w0", at=2.0)
    configs = worker_fault_configs(plan, ["w0", "w1"])
    cluster = Cluster(tmp_path, n_workers=2, fault_configs=configs, seed=0)
    try:
        m = cluster.manager
        _produce(m)
        # the worker's own timer announces the departure over the wire;
        # the manager migrates, releases, and the process exits cleanly
        cluster.events.wait_event("worker_drain", timeout=30)
        cluster.events.wait_event("worker_drained", timeout=30)
        cluster.events.wait_event("worker_leave", timeout=30)
        events = m.log.events()
        drained = m.log.events("worker_drained")[0]
        leave = next(e for e in events if e.kind == "worker_leave")
        assert drained.worker == leave.worker
        assert drained.time <= leave.time
        # the survivor still serves the whole workload
        tasks = [Task("echo again > out") for _ in range(2)]
        for t in tasks:
            m.submit(t)
        m.run_until_done(timeout=60)
        assert all(t.state == TaskState.DONE for t in tasks)
    finally:
        cluster.stop()
