"""Correctness sweep of the core-table indexes and id generators.

Covers the three bugfix satellites of the scheduler-index PR:

* ``ReplicaTable`` incremental per-worker byte totals must equal a
  from-scratch recount after *any* mutation sequence, and exhausted
  entries (sizes, per-worker name sets) must be pruned rather than
  accumulating forever;
* task and transfer id streams are per-manager/per-table, so two
  managers in one process mint identical sequences (chaos-replay
  determinism) instead of sharing one module-global counter;
* ready-queue order never parses task ids (the old
  ``int(task_id.lstrip("t"))`` key crashed on foreign ids and
  mis-parsed ``tt12`` as 12).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.replica_table import ReplicaTable
from repro.core.scheduler import ReadyQueue
from repro.core.task import Task, TaskState
from repro.core.transfer_table import TransferTable
from repro.faults import FaultPlan, SimFaultInjector
from repro.sim.cluster import SimCluster
from repro.sim.simmanager import SimManager

WORKERS = [f"w{i}" for i in range(4)]
FILES = [f"f{i}" for i in range(5)]


def _recount(table: ReplicaTable) -> dict[str, int]:
    """Ground truth: per-worker byte totals from the raw facts."""
    totals: dict[str, int] = {}
    for name in table.names():
        size = table.size_of(name)
        if not size:
            continue
        for w in table.locate(name):
            totals[w] = totals.get(w, 0) + size
    return totals


replica_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "add_unsized", "remove", "drop_worker", "forget"]),
        st.sampled_from(FILES),
        st.sampled_from(WORKERS),
        st.integers(1, 1000),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(replica_ops)
def test_replica_byte_index_equals_recount(ops):
    table = ReplicaTable()
    sized: dict[str, int] = {}  # sizes are immutable once learned
    for kind, name, worker, size in ops:
        if kind == "add":
            size = sized.setdefault(name, size)
            table.add_replica(name, worker, size=size)
        elif kind == "add_unsized":
            # size learned later (or never): the index must credit
            # existing holders retroactively when it arrives
            table.add_replica(name, worker)
        elif kind == "remove":
            table.remove_replica(name, worker)
            if not table.locate(name):
                sized.pop(name, None)  # size forgotten with last replica
        elif kind == "drop_worker":
            for gone in table.remove_worker(worker):
                if not table.locate(gone):
                    sized.pop(gone, None)
        else:
            table.forget_name(name)
            sized.pop(name, None)
        expected = _recount(table)
        for w in WORKERS:
            assert table.bytes_at(w) == expected.get(w, 0), (
                f"byte index diverged at {w} after {kind} {name}"
            )


@settings(max_examples=200, deadline=None)
@given(replica_ops)
def test_replica_table_prunes_exhausted_entries(ops):
    """After tearing everything down the table is empty *internally* —
    no orphaned sizes, name sets, or byte totals survive."""
    table = ReplicaTable()
    for kind, name, worker, size in ops:
        if kind in ("add", "add_unsized"):
            try:
                table.add_replica(
                    name, worker, size=size if kind == "add" else None
                )
            except ValueError:
                pass  # size conflict with an earlier op: irrelevant here
        elif kind == "remove":
            table.remove_replica(name, worker)
        elif kind == "drop_worker":
            table.remove_worker(worker)
        else:
            table.forget_name(name)
    for w in WORKERS:
        table.remove_worker(w)
    assert table.total_names() == 0
    assert table.total_replicas() == 0
    assert table._sizes == {}
    assert table._names_by_worker == {}
    assert table._bytes_by_worker == {}
    assert table._workers_by_name == {}


def test_size_pruned_with_last_replica():
    """Regression: sizes used to outlive their replicas forever."""
    table = ReplicaTable()
    table.add_replica("f", "w0", size=77)
    table.add_replica("f", "w1", size=77)
    table.remove_replica("f", "w0")
    assert table.size_of("f") == 77  # one holder left: size retained
    table.remove_replica("f", "w1")
    assert table.size_of("f") == 0
    assert table._sizes == {}
    assert table._names_by_worker == {}  # empty sets pruned too


def test_a_sole_holder_is_stored_as_its_id_and_read_as_a_set():
    table = ReplicaTable()
    table.add_replica("f", "w0", size=5)
    assert table._workers_by_name == {"f": "w0"}  # no set for one holder
    assert table.locate("f") == {"w0"} and table.has_replica("f", "w0")
    assert not table.has_replica("f", "w") and table.replica_count("f") == 1
    table.add_replica("f", "w1")
    assert table._workers_by_name == {"f": {"w0", "w1"}}
    table.remove_replica("f", "w0")
    assert table._workers_by_name == {"f": "w1"}  # back to the id
    assert table.bytes_at("w1") == 5 and table.bytes_at("w0") == 0
    # a sole holder is all of ``among`` only when ``among`` is just it
    assert table.locality_scores_among(["f"], {"w1"}) == {}
    assert table.locality_scores_among(["f"], set()) == {}
    assert table.locality_scores_among(["f"], {"w1", "w2"}) == {"w1": 5}
    assert table.locality_scores_among(["f"], {"w2"}) == {"w1": 5}
    assert table.total_replicas() == 1
    assert table.forget_name("f") == {"w1"} and table._workers_by_name == {}


def test_late_size_credits_existing_holders():
    table = ReplicaTable()
    table.add_replica("f", "w0")
    table.add_replica("f", "w1")
    assert table.bytes_at("w0") == 0
    table.add_replica("f", "w2", size=50)
    assert table.bytes_at("w0") == 50
    assert table.bytes_at("w1") == 50
    assert table.bytes_at("w2") == 50


# -- elastic membership index hygiene -----------------------------------


def _elastic_workload(m, n=8, duration=2.0):
    shared = m.declare_dataset("shared", 1000)
    temps, tasks = [], []
    for i in range(n):
        temp = m.declare_temp()
        t = Task(f"p{i}").add_input(shared, "d").add_output(temp, "out")
        m.submit(t, duration=duration, output_sizes={"out": 1000})
        temps.append(temp)
        tasks.append(t)
    for i in range(n):
        t = (
            Task(f"c{i}")
            .add_input(temps[i], "a")
            .add_input(temps[(i + 3) % n], "b")
        )
        m.submit(t, duration=duration)
        tasks.append(t)
    return tasks


def test_drain_path_leaves_no_stale_worker_state():
    """The worker set is no longer fixed after start: a graceful drain
    must retire *every* per-worker index entry — byte totals, name
    sets, drain bookkeeping, failure accounting — exactly like a crash
    does, with nothing accumulating run over run."""
    c = SimCluster()
    for i in range(3):
        c.add_worker(cores=4, worker_id=f"w{i}")
    m = SimManager(c, seed=5, max_task_retries=5)
    tasks = _elastic_workload(m)
    SimFaultInjector(FaultPlan(seed=5).drain("w0", at=0.5), m)
    m.run()
    assert all(t.state == TaskState.DONE for t in tasks)
    control = m.control
    assert "w0" not in control.workers
    assert control.replicas.bytes_at("w0") == 0
    assert "w0" not in control.replicas._names_by_worker
    assert "w0" not in control.replicas._bytes_by_worker
    assert not control.draining
    assert not control._drain_released
    assert not control._drain_stats
    assert "w0" not in control.blocklist
    assert control.failure_scores["w0"] == 0


def test_drained_worker_id_rejoins_fresh():
    """Id reuse: a worker id that drained away and later rejoins must
    start from a clean slate — not inherit the old life's draining
    flag (which would silently exclude it from placement forever)."""
    c = SimCluster()
    for i in range(3):
        c.add_worker(cores=4, worker_id=f"w{i}")
    m = SimManager(c, seed=5, max_task_retries=5)
    tasks = _elastic_workload(m, n=12)
    plan = FaultPlan(seed=5).drain("w0", at=0.5).join("w0", at=3.0)
    SimFaultInjector(plan, m)
    stats = m.run()
    assert all(t.state == TaskState.DONE for t in tasks)
    joins = [e for e in stats.log.events("worker_join") if e.worker == "w0"]
    assert len(joins) == 2, "the drained id must have rejoined"
    assert "w0" in m.control.workers
    assert "w0" not in m.control.draining
    # the second life was actually schedulable again
    rejoined_at = joins[1].time
    assert any(
        e.kind == "task_start" and e.worker == "w0" and e.time >= rejoined_at
        for e in stats.log.events()
    ), "the rejoined worker never received work"


# -- id generators ------------------------------------------------------


def test_transfer_ids_are_per_table():
    """Regression: the id counter was a module global, so a second
    manager in the same process started at wherever the first left off
    and chaos replays diverged run-to-run."""
    a, b = TransferTable(), TransferTable()
    ra = [a.begin(f"f{i}", "w0", "w1", size=1).transfer_id for i in range(3)]
    rb = [b.begin(f"f{i}", "w0", "w1", size=1).transfer_id for i in range(3)]
    assert ra == rb == ["x1", "x2", "x3"]


def test_task_ids_are_per_manager():
    """Two managers interleaving submissions mint identical id streams."""

    def fresh():
        c = SimCluster()
        c.add_workers(1, cores=4)
        return SimManager(c)

    m1, m2 = fresh(), fresh()
    ids1, ids2 = [], []
    for i in range(4):
        # deliberately interleaved: a shared counter would zip them
        t1, t2 = Task(f"a{i}"), Task(f"b{i}")
        m1.submit(t1, duration=0.1)
        m2.submit(t2, duration=0.1)
        ids1.append(t1.task_id)
        ids2.append(t2.task_id)
    assert ids1 == ids2 == ["t1", "t2", "t3", "t4"]
    m1.run()
    m2.run()


def test_task_identity_assigned_at_submit():
    t = Task("echo hi")
    assert t.task_id is None
    assert t.seq == 0
    c = SimCluster()
    c.add_workers(1)
    m = SimManager(c)
    m.submit(t, duration=0.1)
    assert t.task_id == "t1"
    assert t.seq == 1
    stats = m.run()
    assert stats.tasks_done == 1
    assert t.state == TaskState.DONE


# -- ready-order id robustness ------------------------------------------


def _pop_order(tasks):
    q = ReadyQueue()
    for t in tasks:
        q.push(t)
    return [e[3].task_id for e in q.pop_entries(q.snapshot_token)]


def test_ready_order_survives_foreign_task_ids():
    """Regression: ``int(t.task_id.lstrip("t"))`` raised ValueError for
    any id not of the form ``t<N>`` and parsed ``tt12`` as 12."""
    specs = [("job-7", 3), ("tt12", 1), ("θ", 2), ("t5", 4)]
    tasks = []
    for tid, seq in specs:
        t = Task(f"cmd {tid}")
        t.task_id = tid
        t.seq = seq
        tasks.append(t)
    assert _pop_order(tasks) == ["tt12", "θ", "job-7", "t5"]


def test_ready_order_priority_beats_seq():
    a, b = Task("a"), Task("b")
    a.task_id, a.seq, a.priority = "za", 1, 0.0
    b.task_id, b.seq, b.priority = "zb", 2, 1.0
    assert _pop_order([a, b]) == ["zb", "za"]
