"""Equivalence suite: index-backed scheduling == the reference scan.

The incremental hot path (``choose_worker_indexed`` over a
:class:`PlacementIndex`, ``plan_transfers`` over the transfer table's
saturation set, :class:`ReadyQueue` instead of a per-pump sort) must
produce *byte-identical* decisions to the brute-force code it replaced.
Three layers of evidence:

1. hypothesis properties comparing both placement paths on random
   cluster states (including draining workers and failure scores);
2. a shadow scheduler wired into real ``SimManager`` workloads that
   cross-checks every live placement decision against the oracle;
3. ``ReadyQueue`` iteration order vs. the reference ``order_ready``,
   plus the saturation fast path vs. pure limit arithmetic.

The brute-force side lives in ``tests/core/reference_scheduler.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.files import BufferFile
from repro.core.replica_table import ReplicaTable
from repro.core.resources import Resources
from repro.core.scheduler import (
    PlacementIndex,
    ReadyQueue,
    Scheduler,
    WorkerView,
)
from repro.core.task import Task
from repro.core.transfer_table import MANAGER_SOURCE, TransferTable
from repro.sim.cluster import SimCluster
from repro.sim.simmanager import SimManager
from tests.core.reference_scheduler import choose_worker, order_ready

MB = 1_000_000
worker_ids = [f"w{i}" for i in range(6)]
file_names = [f"file-{i}" for i in range(8)]

CAPACITY = Resources(cores=8, memory=1000, disk=1000, gpus=2)

#: mixed request shapes — zero and fractional cores, and every other
#: dimension non-zero somewhere — so a shape that fits nowhere can sit
#: beside one that still does, componentwise-incomparable ones included
request_shapes = st.builds(
    Resources,
    cores=st.sampled_from([0, 0.5, 1, 2, 4, 8]),
    memory=st.sampled_from([0, 100, 400, 1000]),
    disk=st.sampled_from([0, 200, 800]),
    gpus=st.sampled_from([0, 0, 1, 2]),
)

#: what a worker already has allocated (any dimension may be exhausted)
allocations = st.builds(
    Resources,
    cores=st.sampled_from([0, 1, 4, 6, 7.5, 8]),
    memory=st.sampled_from([0, 300, 900, 1000]),
    disk=st.sampled_from([0, 500, 1000]),
    gpus=st.sampled_from([0, 1, 2]),
)


def _draw_view(draw, wid, draining=False):
    allocated = draw(allocations)
    return WorkerView(
        worker_id=wid,
        capacity=CAPACITY,
        allocated=allocated,
        running_tasks=draw(st.integers(0, 8)),
        draining=draining,
    )


def _draw_task(draw, names):
    task = Task("cmd")
    for i, name in enumerate(names):
        f = BufferFile(b"x")
        f.cache_name = name
        task.inputs.append((f"in{i}", f))
    task.resources = draw(request_shapes)
    return task


@st.composite
def cluster_state(draw):
    """Random replica layout, transfer load, task, and worker views."""
    replicas = ReplicaTable()
    for name in file_names:
        holders = draw(st.sets(st.sampled_from(worker_ids), max_size=4))
        size = draw(st.integers(0, 10**6))
        for w in holders:
            replicas.add_replica(name, w, size=size)
    worker_limit = draw(st.one_of(st.none(), st.integers(0, 4)))
    source_limit = draw(st.one_of(st.none(), st.integers(0, 4)))
    transfers = TransferTable(worker_limit=worker_limit, source_limit=source_limit)
    pairs = draw(
        st.sets(
            st.tuples(st.sampled_from(file_names), st.sampled_from(worker_ids)),
            max_size=6,
        )
    )
    for name, dest in pairs:
        source = draw(st.sampled_from(worker_ids + [MANAGER_SOURCE]))
        transfers.begin(name, source, dest, size=1)
    task = _draw_task(
        draw, draw(st.lists(st.sampled_from(file_names), max_size=5))
    )
    views = {}
    for wid in worker_ids:
        if draw(st.booleans()):
            continue  # worker absent
        views[wid] = _draw_view(draw, wid, draining=draw(st.booleans()))
    sched = Scheduler(replicas, transfers, locality=draw(st.booleans()))
    if draw(st.booleans()):
        scores = {w: draw(st.integers(0, 3)) for w in worker_ids}
        sched.failure_score = scores.get
    return sched, task, views


@settings(max_examples=300, deadline=None)
@given(cluster_state())
def test_indexed_placement_matches_reference_scan(state):
    sched, task, views = state
    expected = choose_worker(sched, task, views)
    index = PlacementIndex(dict(views), sched.failure_score)
    assert sched.choose_worker_indexed(task, index) == expected


@settings(max_examples=100, deadline=None)
@given(cluster_state(), st.data())
def test_indexed_placement_matches_after_view_updates(state, data):
    """The index stays exact as dispatches mutate worker views."""
    sched, task, views = state
    index = PlacementIndex(dict(views), sched.failure_score)
    for _ in range(data.draw(st.integers(1, 4))):
        wid = data.draw(st.sampled_from(worker_ids))
        if data.draw(st.booleans()):
            views.pop(wid, None)
            index.update(wid, None)
        else:
            v = _draw_view(data.draw, wid)
            views[wid] = v
            index.update(wid, v)
        assert sched.choose_worker_indexed(task, index) == choose_worker(
            sched, task, views
        )


@settings(max_examples=150, deadline=None)
@given(cluster_state(), st.data())
def test_placement_pass_through_one_index_matches_reference_scan(state, data):
    """A whole pass — many tasks of mixed shapes through ONE index, as
    the pump runs it — decides every task like the full scan does.

    This is the exactness claim of the infeasible-shape record: once a
    shape found no fitting view, every request at least as large is
    refused without a look, and that must never differ from scanning.
    Between placements the pass also sees what a pump can see — a
    dispatch consuming capacity — and what it cannot (capacity freed, a
    worker leaving or joining), which the record must survive too.
    """
    sched, _task, views = state
    index = PlacementIndex(dict(views), sched.failure_score)
    for _ in range(data.draw(st.integers(2, 12))):
        task = _draw_task(
            data.draw,
            data.draw(st.lists(st.sampled_from(file_names), max_size=4)),
        )
        expected = choose_worker(sched, task, views)
        assert sched.choose_worker_indexed(task, index) == expected
        if expected is not None:
            before = views[expected]
            views[expected] = WorkerView(
                worker_id=expected,
                capacity=before.capacity,
                allocated=before.allocated + task.resources,
                running_tasks=before.running_tasks + 1,
            )
            index.update(expected, views[expected])
        event = data.draw(st.sampled_from(["none", "none", "free", "leave"]))
        wid = data.draw(st.sampled_from(worker_ids))
        if event == "free":
            views[wid] = _draw_view(data.draw, wid)
            index.update(wid, views[wid])
        elif event == "leave":
            views.pop(wid, None)
            index.update(wid, None)


@st.composite
def everywhere_state(draw):
    """Views tied on failure score and load, draining ones among them,
    and tasks whose inputs include files held by *every* view — the
    inputs locality scoring skips — beside files held by a few."""
    views = {}
    for wid in draw(st.sets(st.sampled_from(worker_ids), min_size=1)):
        views[wid] = WorkerView(
            worker_id=wid,
            capacity=CAPACITY,
            allocated=draw(allocations),
            running_tasks=draw(st.sampled_from([0, 0, 1])),
            draining=draw(st.sampled_from([False, False, True])),
        )
    replicas = ReplicaTable()
    for name in file_names:
        size = draw(st.sampled_from([0, 10, 10, 1000]))
        if name < "file-4":  # every view, and maybe a worker beyond them
            holders = set(views) | draw(st.sets(st.sampled_from(worker_ids), max_size=2))
        else:
            holders = draw(st.sets(st.sampled_from(worker_ids), max_size=3))
        for w in holders:
            replicas.add_replica(name, w, size=size)
    sched = Scheduler(replicas, TransferTable(), locality=True)
    if draw(st.booleans()):
        scores = {w: draw(st.sampled_from([0, 0, 1])) for w in worker_ids}
        sched.failure_score = scores.get
    return sched, views


@settings(max_examples=300, deadline=None)
@given(everywhere_state(), st.data())
def test_inputs_every_view_holds_decide_nothing(state, data):
    """Skipping an input every view holds places each task where the
    full scan does — with draining views, failure-score and load ties,
    and inputs held everywhere or beside one held by a few."""
    sched, views = state
    index = PlacementIndex(dict(views), sched.failure_score)
    for _ in range(data.draw(st.integers(1, 6))):
        names = data.draw(st.lists(st.sampled_from(file_names), min_size=1, max_size=5))
        task = _draw_task(data.draw, names)
        assert sched.choose_worker_indexed(task, index) == choose_worker(
            sched, task, views
        )


@settings(max_examples=300, deadline=None)
@given(cluster_state(), st.data())
def test_a_smaller_request_after_a_larger_one_parked_workers(state, data):
    """A large request parks every view it cannot take; a smaller (or
    incomparable) one after it must still find each of them that fits
    it, and the large one, asked again, must still be refused — before
    and after a worker is refreshed, joins or leaves."""
    sched, _task, views = state
    index = PlacementIndex(dict(views), sched.failure_score)
    names = data.draw(st.lists(st.sampled_from(file_names), max_size=3))
    big = _draw_task(data.draw, names)
    big.resources = data.draw(
        st.sampled_from([Resources(cores=8), Resources(cores=4, gpus=2), CAPACITY])
    )
    shapes = [big] + [
        _draw_task(data.draw, names) for _ in range(data.draw(st.integers(1, 4)))
    ] + [big]
    for i, task in enumerate(shapes):
        assert sched.choose_worker_indexed(task, index) == choose_worker(
            sched, task, views
        ), f"request {i} {task.resources}"
        if i == 1:
            event = data.draw(st.sampled_from(["none", "refresh", "join", "leave"]))
            wid = data.draw(st.sampled_from(worker_ids))
            if event in ("refresh", "join"):
                views[wid] = _draw_view(data.draw, wid)
                index.update(wid, views[wid])
            elif event == "leave":
                views.pop(wid, None)
                index.update(wid, None)


def test_infeasible_shape_is_refused_without_a_scan_until_capacity_frees():
    replicas = ReplicaTable()
    replicas.add_replica("data", "w0", size=10)
    sched = Scheduler(replicas, TransferTable())
    full = Resources(cores=8, memory=1000)
    views = {
        w: WorkerView(worker_id=w, capacity=CAPACITY, allocated=full)
        for w in ("w0", "w1")
    }
    index = PlacementIndex(dict(views))
    walks = []
    inner = index.best_fallback
    index.best_fallback = lambda request: walks.append(request) or inner(request)

    def task(**shape):
        t = Task("cmd")
        f = BufferFile(b"x")
        f.cache_name = "data"
        t.inputs.append(("in", f))
        t.resources = Resources(**shape)
        return t

    assert sched.choose_worker_indexed(task(cores=1), index) is None
    assert len(walks) == 1
    # same shape, a bigger one, one bigger in another dimension: no walk
    for shape in ({"cores": 1}, {"cores": 4}, {"cores": 1, "gpus": 1}):
        assert sched.choose_worker_indexed(task(**shape), index) is None
    assert len(walks) == 1
    # a smaller or incomparable request is still looked at, and fits
    assert sched.choose_worker_indexed(task(cores=0, gpus=1), index) == "w0"
    assert len(walks) == 2
    # capacity freed on one worker: the record must not outlive the fact
    index.update(
        "w1",
        WorkerView(
            worker_id="w1", capacity=CAPACITY, allocated=Resources(cores=6)
        ),
    )
    assert sched.choose_worker_indexed(task(cores=2), index) == "w1"
    assert sched.choose_worker_indexed(task(cores=4), index) is None


def _full(wid, running=0, allocated=Resources(cores=8)):
    return WorkerView(
        worker_id=wid, capacity=CAPACITY, allocated=allocated, running_tasks=running
    )


def test_a_refresh_that_frees_nothing_keeps_a_full_index_known_full():
    """A failed walk parks every view, which is what says the shape is
    infeasible; when one of them is refreshed still full, that fact
    moves into the record instead of being lost with the parking."""
    one = Resources(cores=1)
    index = PlacementIndex({w: _full(w) for w in ("w0", "w1", "w2")})
    assert index.best_fallback(one) is None
    assert index.infeasible(one) and index._infeasible == []
    index.update("w0", _full("w0", running=3))
    assert index.infeasible(one) and index._infeasible == [one]
    assert index.infeasible(Resources(cores=2)) and not index.infeasible(Resources(cores=0))
    index.update("w1", _full("w1", allocated=Resources(cores=6)))
    assert not index.infeasible(one) and index._infeasible == []
    assert index.best_fallback(one) == "w1"


def test_compaction_keeps_parked_workers_out_of_the_heap():
    """Stale entries of one busy worker pile up until the heap is
    compacted; the workers parked meanwhile must stay parked."""
    one = Resources(cores=1)
    index = PlacementIndex({f"w{i:02d}": _full(f"w{i:02d}") for i in range(20)})
    assert index.best_fallback(one) is None
    free = Resources(cores=7)
    for running in range(1, 40):
        index.update("w00", _full("w00", running=running, allocated=free))
    valid = [e[2] for e in index._heap if index._entries[e[2]] is e]
    assert valid == ["w00"] and len(index._heap) <= 2 * len(valid) + 9
    assert len(index._parked_on) == 19
    assert index.best_fallback(one) == "w00"


def test_duplicate_input_names_score_like_reference():
    """A task listing one cache name twice must double-count it on both
    paths (the old scan summed over the raw input list)."""
    replicas = ReplicaTable()
    replicas.add_replica("dup", "w0", size=10)
    replicas.add_replica("solo", "w1", size=15)
    sched = Scheduler(replicas, TransferTable())
    task = Task("cmd")
    for i, name in enumerate(["dup", "dup", "solo"]):
        f = BufferFile(b"x")
        f.cache_name = name
        task.inputs.append((f"in{i}", f))
    views = {
        w: WorkerView(worker_id=w, capacity=Resources(cores=8))
        for w in ("w0", "w1", "w2")
    }
    # w0 scores 20 (10 counted twice) > w1's 15
    assert choose_worker(sched, task, views) == "w0"
    assert sched.choose_worker_indexed(task, PlacementIndex(dict(views))) == "w0"


# -- live shadow check over real workloads -----------------------------


def _shadow(monkeypatch):
    """Cross-check every indexed decision against the oracle, live."""
    calls = []
    orig = Scheduler.choose_worker_indexed

    def checking(self, task, index):
        expected = choose_worker(self, task, dict(index.views))
        got = orig(self, task, index)
        assert got == expected, (
            f"indexed placement diverged for {task.task_id}: "
            f"{got!r} != oracle {expected!r}"
        )
        calls.append(got)
        return got

    monkeypatch.setattr(Scheduler, "choose_worker_indexed", checking)
    return calls


def test_shadow_scheduler_fan_out_workload(monkeypatch):
    calls = _shadow(monkeypatch)
    c = SimCluster()
    c.add_workers(5, cores=4)
    m = SimManager(c)
    data = m.declare_dataset("shared", 100 * MB)
    tasks = [Task("use").add_input(data, "d") for _ in range(40)]
    for t in tasks:
        m.submit(t, duration=1.0)
    stats = m.run()
    assert stats.tasks_done == 40
    assert len(calls) >= 40


def test_shadow_scheduler_lineage_workload(monkeypatch):
    """Chained temps + priorities + a worker mid-run exercise requeues,
    locality and the fallback path under the shadow check."""
    calls = _shadow(monkeypatch)
    c = SimCluster()
    c.add_workers(3, cores=2)
    m = SimManager(c)
    prev = None
    tasks = []
    for i in range(12):
        t = Task(f"stage{i}").set_priority(float(i % 3))
        if prev is not None:
            t.add_input(prev, "in")
        out = m.declare_temp()
        t.add_output(out, "out")
        prev = out
        tasks.append(t)
    for t in tasks:
        m.submit(t, duration=0.5, output_sizes={"out": 5 * MB})
    stats = m.run()
    assert stats.tasks_done == 12
    assert len(calls) >= 12


# -- ReadyQueue vs. the sorted-list ordering ---------------------------


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-3, 3), st.booleans()), min_size=1, max_size=30
    )
)
def test_ready_queue_pops_in_order_ready_order(specs):
    """Heap iteration == ``order_ready`` over the same live set."""
    q = ReadyQueue()
    tasks = []
    for i, (prio, keep) in enumerate(specs):
        t = Task(f"cmd{i}")
        t.task_id = f"t{i + 1}"
        t.seq = i + 1
        t.priority = float(prio)
        q.push(t)
        tasks.append((t, keep))
    dropped = [t for t, keep in tasks if not keep]
    for t in dropped:
        q.discard(t)
    live = [t for t, keep in tasks if keep]
    expected = order_ready(live)
    got = [entry[3] for entry in q.pop_entries(q.snapshot_token)]
    assert got == expected


def test_ready_queue_defers_entries_pushed_mid_iteration():
    """A task pushed during a pump waits for the next snapshot, exactly
    like the old iterate-over-a-sorted-copy loop."""
    q = ReadyQueue()
    for i in range(3):
        t = Task(f"cmd{i}")
        t.task_id = f"t{i + 1}"
        t.seq = i + 1
        q.push(t)
    snapshot = q.snapshot_token
    seen = []
    for entry in q.pop_entries(snapshot):
        task = entry[3]
        seen.append(task.task_id)
        if task.task_id == "t1":
            late = Task("late")
            late.task_id = "t0"
            late.seq = 0  # would sort *first* if not deferred
            q.push(late)
        q.discard(task)
    assert seen == ["t1", "t2", "t3"]
    # the deferred push is back on the heap for the next round
    assert [e[3].task_id for e in q.pop_entries(q.snapshot_token)] == ["t0"]


def test_ready_queue_restore_and_supersede():
    q = ReadyQueue()
    a, b = Task("a"), Task("b")
    a.task_id, a.seq = "ta", 1
    b.task_id, b.seq = "tb", 2
    q.push(a)
    q.push(b)
    stash = []
    for entry in q.pop_entries(q.snapshot_token):
        stash.append(entry)  # neither placed
    for entry in stash:
        q.restore(entry)
    # re-pushing b supersedes its restored entry: no duplicate yield
    b.priority = 5.0
    q.push(b)
    got = [e[3].task_id for e in q.pop_entries(q.snapshot_token)]
    assert got == ["tb", "ta"]
    assert len(q) == 2


# -- transfer-table saturation fast path vs. arithmetic ----------------


@st.composite
def transfer_ops(draw):
    worker_limit = draw(st.one_of(st.none(), st.integers(0, 3)))
    source_limit = draw(st.one_of(st.none(), st.integers(0, 3)))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["begin", "complete"]),
                st.sampled_from(file_names),
                st.sampled_from(worker_ids + [MANAGER_SOURCE]),
                st.sampled_from(worker_ids),
            ),
            max_size=25,
        )
    )
    return worker_limit, source_limit, ops


@settings(max_examples=200, deadline=None)
@given(transfer_ops())
def test_source_available_matches_limit_arithmetic(spec):
    # limits are fixed for a table's life: each example builds its own
    worker_limit, source_limit, ops = spec
    table = TransferTable(worker_limit=worker_limit, source_limit=source_limit)
    for kind, name, source, dest in ops:
        if kind == "begin":
            if not table.in_flight(name, dest):
                table.begin(name, source, dest, size=1)
        else:
            active = table.active()
            if active:
                table.complete(active[0].transfer_id)
        for s in worker_ids + [MANAGER_SOURCE]:
            limit = table.limit_for(s)
            arithmetic = limit is None or table.source_load(s) < limit
            assert table.source_available(s) == arithmetic, (
                f"saturation view diverged for {s} after {kind}"
            )
        candidates = worker_ids + [MANAGER_SOURCE]
        expected = [
            s
            for s in candidates
            if table.limit_for(s) is None
            or table.source_load(s) < table.limit_for(s)
        ]
        assert table.sources_with_capacity(candidates) == expected


@settings(max_examples=100, deadline=None)
@given(cluster_state())
def test_plan_transfers_matches_arithmetic_availability(state):
    """The plan built on the saturation fast path equals the plan built
    when every availability check recomputes from raw loads."""
    sched, task, _views = state
    fast = sched.plan_transfers(task, "w0", {})
    table = sched.transfers
    original = TransferTable.source_available
    try:
        TransferTable.source_available = TransferTable._computed_available
        slow = sched.plan_transfers(task, "w0", {})
    finally:
        TransferTable.source_available = original
    assert fast.transfers == slow.transfers
    assert fast.pending == slow.pending
    assert fast.deferred == slow.deferred


def test_minitask_zero_limits_still_unavailable():
    """limit ≤ 0 saturates sources even at zero load (regression: the
    load-driven set alone would report them available)."""
    table = TransferTable(worker_limit=0, source_limit=0)
    assert not table.source_available("w0")
    assert not table.source_available(MANAGER_SOURCE)
    assert table.sources_with_capacity(["w0", MANAGER_SOURCE]) == []


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
