"""Tests for the placement and transfer-source policies (paper §3.3)."""

from repro.core.files import BufferFile
from repro.core.replica_table import ReplicaTable
from repro.core.resources import Resources
from repro.core.scheduler import PlacementIndex, ReadyQueue, Scheduler, WorkerView
from repro.core.task import Task
from repro.core.transfer_table import MANAGER_SOURCE, TransferTable


def make_sched(worker_limit=3, source_limit=100, locality=True):
    rt = ReplicaTable()
    tt = TransferTable(worker_limit=worker_limit, source_limit=source_limit)
    return Scheduler(rt, tt, locality=locality), rt, tt


def worker(wid, cores=4, running=0):
    return WorkerView(
        worker_id=wid,
        capacity=Resources(cores=cores, memory=1000, disk=1000),
        allocated=Resources(cores=0),
        running_tasks=running,
    )


def named_buffer(data: bytes, name: str) -> BufferFile:
    f = BufferFile(data)
    f.cache_name = name
    return f


def choose(sched, task, workers):
    """Placement exactly as the pump asks for it."""
    return sched.choose_worker_indexed(
        task, PlacementIndex(dict(workers), sched.failure_score)
    )


def task_with_inputs(*names):
    t = Task("cmd")
    for i, name in enumerate(names):
        t.add_input(named_buffer(b"x", name), f"in{i}")
    return t


# -- placement ---------------------------------------------------------


def test_placement_prefers_most_cached_bytes():
    sched, rt, _ = make_sched()
    rt.add_replica("big", "w2", size=1000)
    rt.add_replica("small", "w1", size=10)
    workers = {w.worker_id: w for w in [worker("w1"), worker("w2"), worker("w3")]}
    t = task_with_inputs("big", "small")
    assert choose(sched, t, workers) == "w2"


def test_placement_skips_workers_without_capacity():
    sched, rt, _ = make_sched()
    rt.add_replica("big", "w1", size=1000)
    w1 = worker("w1")
    w1.allocated = Resources(cores=4)  # full
    workers = {"w1": w1, "w2": worker("w2")}
    t = task_with_inputs("big")
    assert choose(sched, t, workers) == "w2"


def test_placement_returns_none_when_nothing_fits():
    sched, _, _ = make_sched()
    t = task_with_inputs()
    t.set_resources(Resources(cores=64))
    assert choose(sched, t, {"w1": worker("w1", cores=4)}) is None


def test_placement_skips_draining_workers():
    sched, rt, _ = make_sched()
    rt.add_replica("f", "w1", size=100)
    w1 = worker("w1")
    w1.draining = True
    workers = {"w1": w1, "w2": worker("w2")}
    assert choose(sched, task_with_inputs("f"), workers) == "w2"


def test_placement_tie_breaks_by_load_then_id():
    sched, _, _ = make_sched()
    workers = {
        "w2": worker("w2", running=1),
        "w1": worker("w1", running=0),
        "w3": worker("w3", running=0),
    }
    assert choose(sched, task_with_inputs(), workers) == "w1"


def test_locality_disabled_ignores_replicas():
    sched, rt, _ = make_sched(locality=False)
    rt.add_replica("big", "w2", size=10**9)
    workers = {"w1": worker("w1", running=0), "w2": worker("w2", running=1)}
    assert choose(sched, task_with_inputs("big"), workers) == "w1"


# -- transfer planning ---------------------------------------------------


def test_plan_skips_files_already_present():
    sched, rt, _ = make_sched()
    rt.add_replica("f1", "wdest", size=10)
    plan = sched.plan_transfers(task_with_inputs("f1"), "wdest", {})
    assert plan.transfers == [] and plan.satisfied


def test_plan_prefers_peer_over_fixed_source():
    sched, rt, _ = make_sched()
    rt.add_replica("f1", "wsrc", size=10)
    plan = sched.plan_transfers(
        task_with_inputs("f1"), "wdest", {"f1": MANAGER_SOURCE}
    )
    assert plan.transfers == [("f1", "wsrc")]


def test_plan_falls_back_to_fixed_source():
    sched, _, _ = make_sched()
    plan = sched.plan_transfers(
        task_with_inputs("f1"), "wdest", {"f1": "url:host"}
    )
    assert plan.transfers == [("f1", "url:host")]


def test_plan_defaults_fixed_source_to_manager():
    sched, _, _ = make_sched()
    plan = sched.plan_transfers(task_with_inputs("f1"), "wdest", {})
    assert plan.transfers == [("f1", MANAGER_SOURCE)]


def test_plan_respects_peer_limit_and_defers():
    sched, rt, tt = make_sched(worker_limit=1, source_limit=0)
    rt.add_replica("f1", "wsrc", size=10)
    tt.begin("other", "wsrc", "welse", size=1)  # saturate the only peer
    plan = sched.plan_transfers(task_with_inputs("f1"), "wdest", {"f1": MANAGER_SOURCE})
    assert plan.deferred == ["f1"] and not plan.satisfied


def test_plan_reserves_slots_within_one_round():
    # one source holding two needed files, limit 1: only one scheduled now
    sched, rt, _ = make_sched(worker_limit=1, source_limit=0)
    rt.add_replica("f1", "wsrc", size=10)
    rt.add_replica("f2", "wsrc", size=10)
    plan = sched.plan_transfers(task_with_inputs("f1", "f2"), "wdest", {})
    assert len(plan.transfers) == 1
    assert len(plan.deferred) == 1


def test_plan_reports_pending_in_flight():
    sched, _, tt = make_sched()
    tt.begin("f1", MANAGER_SOURCE, "wdest", size=1)
    plan = sched.plan_transfers(task_with_inputs("f1"), "wdest", {})
    assert plan.pending == ["f1"]
    assert plan.transfers == [] and plan.satisfied


def test_plan_picks_least_loaded_peer():
    sched, rt, tt = make_sched(worker_limit=5)
    rt.add_replica("f1", "wa", size=10)
    rt.add_replica("f1", "wb", size=10)
    tt.begin("other", "wa", "wx", size=1)
    plan = sched.plan_transfers(task_with_inputs("f1"), "wdest", {})
    assert plan.transfers == [("f1", "wb")]


def test_plan_never_uses_dest_as_its_own_source():
    sched, rt, _ = make_sched()
    rt.add_replica("f1", "wdest", size=10)
    rt.remove_replica("f1", "wdest")
    rt.add_replica("f1", "wonly", size=10)
    plan = sched.plan_transfers(task_with_inputs("f1"), "wonly", {})
    assert plan.transfers == []  # already present at wonly


def test_minitask_pseudo_source_always_available():
    sched, _, tt = make_sched(worker_limit=0, source_limit=0)
    plan = sched.plan_transfers(
        task_with_inputs("f1"), "wdest", {"f1": "@minitask"}
    )
    assert plan.transfers == [("f1", "@minitask")]


def test_ready_queue_priority_then_fifo():
    q = ReadyQueue()
    tasks = [Task("a"), Task("b").set_priority(5), Task("c")]
    for seq, t in enumerate(tasks, 1):
        t.task_id, t.seq = f"t{seq}", seq
        q.push(t)
    t1, t2, t3 = tasks
    assert [e[3] for e in q.pop_entries(q.snapshot_token)] == [t2, t1, t3]
