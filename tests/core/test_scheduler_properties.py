"""Hypothesis property tests for the scheduling invariants (DESIGN §5)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.files import BufferFile
from repro.core.replica_table import ReplicaTable
from repro.core.resources import Resources
from repro.core.scheduler import PlacementIndex, Scheduler, WorkerView
from repro.core.task import Task
from repro.core.transfer_table import MANAGER_SOURCE, TransferTable
from tests.core.reference_scheduler import choose_worker

worker_ids = [f"w{i}" for i in range(6)]
file_names = [f"file-{i}" for i in range(8)]


@st.composite
def cluster_state(draw):
    """A random replica layout, in-flight transfer set, and task."""
    replicas = ReplicaTable()
    for name in file_names:
        holders = draw(st.sets(st.sampled_from(worker_ids), max_size=4))
        size = draw(st.integers(1, 10**6))  # one size per file: immutable
        for w in holders:
            replicas.add_replica(name, w, size=size)
    worker_limit = draw(st.one_of(st.none(), st.integers(0, 4)))
    source_limit = draw(st.one_of(st.none(), st.integers(0, 4)))
    transfers = TransferTable(worker_limit=worker_limit, source_limit=source_limit)
    # pre-load some in-flight transfers (unique (file, dest) pairs)
    pairs = draw(
        st.sets(
            st.tuples(st.sampled_from(file_names), st.sampled_from(worker_ids)),
            max_size=6,
        )
    )
    for name, dest in pairs:
        source = draw(st.sampled_from(worker_ids + [MANAGER_SOURCE]))
        transfers.begin(name, source, dest, size=1)
    task = Task("cmd")
    for i, name in enumerate(draw(st.sets(st.sampled_from(file_names), max_size=5))):
        f = BufferFile(b"x")
        f.cache_name = name
        task.inputs.append((f"in{i}", f))
    # mixed request shapes: zero and fractional cores, and memory, disk
    # and gpus that can each be the dimension that does not fit
    task.resources = Resources(
        cores=draw(st.sampled_from([0, 0.5, 1, 2, 4, 8])),
        memory=draw(st.sampled_from([0, 100, 400, 1000])),
        disk=draw(st.sampled_from([0, 200, 800])),
        gpus=draw(st.sampled_from([0, 0, 1, 2])),
    )
    views = {}
    for wid in worker_ids:
        if draw(st.booleans()):
            continue  # worker absent
        views[wid] = WorkerView(
            worker_id=wid,
            capacity=Resources(cores=8, memory=1000, disk=1000, gpus=2),
            allocated=Resources(
                cores=draw(st.sampled_from([0, 1, 4, 6, 7.5, 8])),
                memory=draw(st.sampled_from([0, 300, 900, 1000])),
                disk=draw(st.sampled_from([0, 500, 1000])),
                gpus=draw(st.sampled_from([0, 1, 2])),
            ),
            running_tasks=draw(st.integers(0, 8)),
        )
    return Scheduler(replicas, transfers), task, views


@settings(max_examples=200, deadline=None)
@given(cluster_state())
def test_chosen_worker_always_fits(state):
    sched, task, views = state
    wid = sched.choose_worker_indexed(task, PlacementIndex(dict(views)))
    assert wid == choose_worker(sched, task, views)
    if wid is not None:
        assert views[wid].can_fit(task.resources)
    else:
        # None only when genuinely nothing fits
        assert all(not v.can_fit(task.resources) for v in views.values())


@settings(max_examples=200, deadline=None)
@given(cluster_state())
def test_plan_never_exceeds_source_limits(state):
    sched, task, views = state
    plan = sched.plan_transfers(task, "w0", {})
    per_source = {}
    for _name, source in plan.transfers:
        per_source[source] = per_source.get(source, 0) + 1
    for source, added in per_source.items():
        limit = sched.transfers.limit_for(source)
        if limit is not None and source != "@minitask":
            assert sched.transfers.source_load(source) + added <= limit


@settings(max_examples=200, deadline=None)
@given(cluster_state())
def test_plan_partitions_inputs(state):
    """Every missing input is exactly one of: transferred, pending, deferred."""
    sched, task, views = state
    dest = "w1"
    plan = sched.plan_transfers(task, dest, {})
    planned = {n for n, _ in plan.transfers}
    categories = planned | set(plan.pending) | set(plan.deferred)
    missing = {
        n for n in task.input_cache_names()
        if not sched.replicas.has_replica(n, dest)
    }
    assert categories == missing
    # no overlap between categories
    assert len(planned) + len(plan.pending) + len(plan.deferred) == len(missing)


@settings(max_examples=200, deadline=None)
@given(cluster_state())
def test_plan_never_sources_from_destination(state):
    sched, task, views = state
    plan = sched.plan_transfers(task, "w2", {})
    for _name, source in plan.transfers:
        assert source != "w2"


@settings(max_examples=200, deadline=None)
@given(cluster_state())
def test_peer_always_preferred_over_fixed_source(state):
    """A fixed-source transfer implies no peer replica existed — unless
    peer transfers are disabled outright (worker limit 0)."""
    sched, task, views = state
    plan = sched.plan_transfers(task, "w3", {})
    peers_disabled = sched.transfers.worker_limit == 0
    for name, source in plan.transfers:
        if source == MANAGER_SOURCE and not peers_disabled:
            peers = sched.replicas.locate(name) - {"w3"}
            assert not peers


@settings(max_examples=100, deadline=None)
@given(cluster_state(), st.integers(0, 5))
def test_placement_deterministic(state, _salt):
    """Same state → same decision (scheduling is a pure function)."""
    sched, task, views = state
    picks = [
        sched.choose_worker_indexed(task, PlacementIndex(dict(views)))
        for _ in range(2)
    ]
    assert picks[0] == picks[1] == choose_worker(sched, task, views)
    p1 = sched.plan_transfers(task, "w4", {})
    p2 = sched.plan_transfers(task, "w4", {})
    assert p1.transfers == p2.transfers
    assert p1.deferred == p2.deferred
