"""Unit tests for the shared control plane against a scripted fake port.

The :class:`FakePort` records every effect the control plane requests
(transfers, executions, staging, deletions) without moving any bytes,
so each policy behaviour — placement, per-source limits, mini-task
staging, regeneration, replication, retries, garbage collection — can
be driven step by step and observed directly.
"""

import weakref

import pytest

from repro.core.autoscale import Autoscaler
from repro.core.control_plane import (
    FETCH_TTL,
    MINITASK_SOURCE,
    NO_SOURCE,
    TRANSFER_BACKOFF_MAX,
    TRANSFER_RETRIES,
    ControlPlane,
    LibraryState,
    ManagerError,
    source_kind,
)
from repro.core.files import (
    BufferFile,
    CacheLevel,
    File,
    LocalFile,
    MiniTaskFile,
    RetrievedFile,
    TempFile,
    URLFile,
)
from repro.core.naming import Namer
from repro.core.policy import Policy
from repro.core.resources import ResourcePool, Resources
from repro.core.task import MiniTask, PythonTask, Task, TaskResult, TaskState
from repro.core.transfer_table import MANAGER_SOURCE
from repro.memo.store import MemoStore
from tests.plane_invariants import violations


class FakePort:
    """Records control-plane effects; advances time only when told."""

    def __init__(self):
        self.time = 0.0
        self.pushes = []       # Transfer records for manager-sourced sends
        self.fetches = []      # Transfer records for url/peer fetches
        self.minitasks = []    # StagingJob
        self.started = []      # Task
        self.cancelled = []    # Task
        self.launched = []     # (lib name, worker_id)
        self.stored = []       # (worker_id, cache_name, size)
        self.deleted = []      # (worker_id, cache_name)
        self.delivered = []    # Task, once per hand-over to the application
        self.refs = []         # ResultRef of each call delivered by reference
        self.asked = []        # (worker_id, cache_name) send-back requests
        self.released = []     # worker ids whose drain completed
        self.persisted = []    # (task, merkle, [names to retain]) per recorded entry
        self.decoded = []      # (task, payload) value-decode requests
        self.decodes = True    # what decode_value answers

    def now(self):
        return self.time

    def push_object(self, record, level):
        self.pushes.append(record)

    def send_fetch(self, record, level):
        self.fetches.append(record)

    def run_minitask(self, job):
        self.minitasks.append(job)

    def start_task(self, task):
        self.started.append(task)

    def cancel_task(self, task):
        self.cancelled.append(task)

    def launch_library(self, lib, worker_id):
        self.launched.append((lib.name, worker_id))

    def store_replica(self, worker_id, cache_name, size, level):
        self.stored.append((worker_id, cache_name, size))

    def delete_replica(self, worker_id, cache_names):
        self.deleted.extend((worker_id, name) for name in cache_names)

    def deliver(self, task, ref):
        self.delivered.append(task)
        if ref is not None:
            self.refs.append(ref)

    def ask_holder(self, worker_id, cache_name):
        self.asked.append((worker_id, cache_name))

    def request_pump(self):
        pass  # tests call control.pump() explicitly for determinism

    def schedule_pump(self, delay):
        pass  # ... and move ``time`` themselves

    def finish_drain(self, worker_id):
        self.released.append(worker_id)

    def memo_persist(self, task, merkle, outputs):
        self.persisted.append((task, merkle, [o.cache_name for o in outputs]))

    def decode_value(self, task, payload, result=None):
        self.decoded.append((task, payload))
        if self.decodes and result is not None:
            task.set_output_value(payload)  # a live retrieval delivers
        return self.decodes


def make_control(memo=None, journal=None, **knobs):
    """A plane over a FakePort; keywords other than the memo store and
    the journal are :class:`Policy` fields."""
    port = FakePort()
    control = ControlPlane(port, Policy(**knobs), memo=memo, journal=journal)
    return port, control


def add_worker(port, control, wid, cores=4, memory=1000):
    return control.worker_joined(
        wid, ResourcePool(Resources(cores=cores, memory=memory))
    )


def declared(
    control, name, source=MANAGER_SOURCE, size=100, cache=CacheLevel.WORKFLOW, kind=File
):
    f = kind(cache)
    f.cache_name = name
    control.declare(f, size, source)
    return f


def finish(port, control, task, exit_code=0, register_outputs=True, **result_kw):
    """Drive one task through result + output registration + completion."""
    wid = task.worker_id
    result = TaskResult(exit_code=exit_code, **result_kw)
    got = control.on_task_result(wid, task.task_id, result)
    if got is None:
        return None
    if register_outputs:
        for _, f in task.outputs:
            control.register_replica(wid, f.cache_name, 10, store=True)
    control.complete_task(got, result)
    return got


def test_dispatch_places_and_pushes_manager_input():
    port, control = make_control()
    add_worker(port, control, "wA")
    f = declared(control, "data", MANAGER_SOURCE, 100)
    t = Task("cat data")
    t.add_input(f, "data")
    control.submit(t)
    control.pump()
    assert t.state == TaskState.DISPATCHED
    assert t.worker_id == "wA"
    assert [r.cache_name for r in port.pushes] == ["data"]
    # the transfer lands: replica registers and the task starts
    control.on_cache_update("wA", "data", 100, port.pushes[0].transfer_id)
    control.pump()
    assert t.state == TaskState.RUNNING
    assert port.started == [t]
    finish(port, control, t)
    assert t.state == TaskState.DONE
    assert control.transfer_counts["manager"] == 1


def test_placement_prefers_worker_with_cached_bytes():
    port, control = make_control()
    add_worker(port, control, "wA")
    add_worker(port, control, "wB")
    f = declared(control, "big", MANAGER_SOURCE, 10_000)
    control.register_replica("wB", "big", 10_000)
    t = Task("use big")
    t.add_input(f, "big")
    control.submit(t)
    control.pump()
    assert t.worker_id == "wB"
    assert port.pushes == []  # input already local: no transfer at all


def test_per_source_limit_defers_excess_transfers():
    port, control = make_control(source_transfer_limit=2)
    for wid in ("w1", "w2", "w3"):
        add_worker(port, control, wid)
    f = declared(control, "shared", MANAGER_SOURCE, 100)
    tasks = []
    for i in range(3):
        t = Task(f"use {i}")
        t.add_input(f, "shared")
        control.submit(t)
        tasks.append(t)
    control.pump()
    # three tasks on three workers, but the manager only serves 2 at once
    assert len(port.pushes) == 2
    first = port.pushes[0]
    control.on_cache_update(first.dest_worker, "shared", 100, first.transfer_id)
    control.pump()
    # a slot freed: the third transfer starts (from the manager or a peer)
    assert len(port.pushes) + len(port.fetches) == 3


def test_peer_source_preferred_over_manager():
    port, control = make_control()
    add_worker(port, control, "wA")
    add_worker(port, control, "wB")
    f = declared(control, "warm", MANAGER_SOURCE, 100)
    control.register_replica("wA", "warm", 100)
    t = Task("use warm")
    t.set_cores(5)  # cannot fit anywhere but wB after wA... force wB
    t.resources = Resources(cores=1)
    t.add_input(f, "warm")
    # occupy wA completely so placement must pick wB
    blocker = Task("sleep")
    blocker.set_cores(4)
    control.submit(blocker)
    control.pump()
    assert blocker.worker_id == "wA" or blocker.worker_id == "wB"
    other = "wB" if blocker.worker_id == "wA" else "wA"
    control.register_replica(blocker.worker_id, "warm", 100)
    control.submit(t)
    control.pump()
    assert t.worker_id == other
    assert len(port.fetches) == 1
    assert source_kind(port.fetches[0].source) == "peer"


def test_minitask_staging_waits_for_dependency_then_runs():
    port, control = make_control()
    add_worker(port, control, "wA")
    tarball = declared(control, "tarball", MANAGER_SOURCE, 500)
    mini = MiniTask("tar -xf input.tar").set_output_name("unpacked")
    mini.add_input(tarball, "input.tar")
    mf = MiniTaskFile(mini)
    mf.cache_name = "unpacked-object"
    control.declare(mf)
    t = Task("use unpacked")
    t.add_input(mf, "unpacked")
    control.submit(t)
    control.pump()
    # the mini task cannot run yet: its own input is still in flight
    assert port.minitasks == []
    assert [r.cache_name for r in port.pushes] == ["tarball"]
    control.on_cache_update("wA", "tarball", 500, port.pushes[0].transfer_id)
    control.pump()
    assert [j.file.cache_name for j in port.minitasks] == ["unpacked-object"]
    job = port.minitasks[0]
    control.on_transfer_complete(job.transfer_id)
    control.pump()
    assert t.state == TaskState.RUNNING
    assert control.transfer_counts["stage"] == 1


def test_temp_output_gc_after_last_consumer():
    port, control = make_control()
    add_worker(port, control, "wA")
    # TASK-level files are collected as soon as their refcount drains;
    # WORKFLOW-level ones wait for workflow close
    temp = TempFile(CacheLevel.TASK)
    temp.cache_name = "intermediate"
    control.declare(temp)
    producer = Task("make").add_output(temp, "out")
    consumer = Task("use").add_input(temp, "out")
    control.submit(producer)
    control.submit(consumer)
    control.pump()
    finish(port, control, producer)
    control.pump()
    assert consumer.state == TaskState.RUNNING
    finish(port, control, consumer)
    # last reference dropped: the replica is collected from the worker
    assert ("wA", "intermediate") in port.deleted
    assert control.replicas.replica_count("intermediate") == 0


def test_worker_loss_requeues_and_regenerates_lineage():
    port, control = make_control()
    add_worker(port, control, "wA")
    add_worker(port, control, "wB")
    temp = TempFile()
    temp.cache_name = "mid"
    control.declare(temp)
    producer = Task("make").add_output(temp, "out")
    consumer = Task("use").add_input(temp, "out")
    control.submit(producer)
    control.pump()
    finish(port, control, producer)
    control.pump()
    control.submit(consumer)
    control.pump()
    assert consumer.state == TaskState.RUNNING
    # locality put the consumer where the only replica of "mid" lives;
    # that worker dies mid-run, taking the replica and the consumer
    lost = consumer.worker_id
    assert lost == producer.worker_id
    control.worker_left(lost)
    # the consumer is requeued and the producer resurrected to
    # regenerate the lost intermediate
    assert consumer.state == TaskState.READY
    assert producer.state == TaskState.READY
    assert producer.retries_used == 1
    assert control.log.count("task_requeued") >= 1
    control.pump()
    assert producer.state == TaskState.RUNNING
    assert producer.worker_id == "wB"
    finish(port, control, producer)
    control.pump()
    assert consumer.state == TaskState.RUNNING
    finish(port, control, consumer)
    assert consumer.state == TaskState.DONE
    # the application heard of the producer when it first ended: its
    # regeneration re-run reaches ``port.deliver`` zero times
    assert port.delivered.count(producer) == 1


def test_consumer_submitted_after_loss_regenerates_lineage():
    # the temp's last replica dies while NOTHING references it; a
    # consumer submitted afterwards must still trigger regeneration
    # (worker_left cannot have seen the need — the pump recovers it)
    port, control = make_control()
    add_worker(port, control, "wA")
    add_worker(port, control, "wB")
    temp = TempFile()
    temp.cache_name = "mid"
    control.declare(temp)
    producer = Task("make").add_output(temp, "out")
    control.submit(producer)
    control.pump()
    finish(port, control, producer)
    lost = producer.worker_id
    control.worker_left(lost)
    assert control.replicas.replica_count("mid") == 0
    assert producer.state == TaskState.DONE  # nothing needed mid yet
    consumer = Task("use").add_input(temp, "out")
    control.submit(consumer)
    control.pump()
    assert producer.state == TaskState.RUNNING  # resurrected by the pump
    finish(port, control, producer)
    control.pump()
    assert consumer.state == TaskState.RUNNING
    finish(port, control, consumer)
    assert consumer.state == TaskState.DONE


def test_strict_loss_raises_when_budget_spent():
    port, control = make_control(loss_retries=0, strict_loss=True)
    add_worker(port, control, "wA")
    t = Task("fragile")
    control.submit(t)
    control.pump()
    assert t.state == TaskState.RUNNING
    with pytest.raises(RuntimeError, match="lost 1 workers"):
        control.worker_left("wA")


def test_replication_tops_up_temp_replicas():
    port, control = make_control(temp_replica_count=2)
    add_worker(port, control, "wA")
    add_worker(port, control, "wB")
    temp = TempFile()
    temp.cache_name = "precious"
    control.declare(temp)
    producer = Task("make").add_output(temp, "out")
    consumer = Task("use").add_input(temp, "out")  # keeps refs alive
    control.submit(producer)
    control.submit(consumer)
    control.pump()
    finish(port, control, producer)
    # a replication transfer to the second worker was planned
    assert len(port.fetches) == 1
    rec = port.fetches[0]
    assert rec.cache_name == "precious"
    assert {rec.source, rec.dest_worker} == {"wA", "wB"}


def test_resource_exceeded_retry_grows_allocation():
    port, control = make_control()
    add_worker(port, control, "wA", cores=8)
    t = Task("hog")
    t.set_resources(Resources(cores=1, memory=100))
    control.submit(t)
    control.pump()
    assert t.state == TaskState.RUNNING
    got = control.on_task_result(
        "wA", t.task_id, TaskResult(exit_code=137, exceeded=["memory"])
    )
    assert got is None  # requeued, not completed
    assert t.state == TaskState.READY
    assert t.resources.memory == 200  # default growth factor 2.0
    control.pump()
    assert t.state == TaskState.RUNNING


def test_sandbox_failure_retries_without_growth():
    port, control = make_control()
    add_worker(port, control, "wA")
    t = Task("flaky")
    control.submit(t)
    control.pump()
    got = control.on_task_result(
        "wA", t.task_id, TaskResult(exit_code=126, failure="sandbox")
    )
    assert got is None
    assert t.state == TaskState.READY
    assert t.retries_used == 1


def test_transfer_failure_exhaustion_fails_waiting_tasks():
    port, control = make_control()
    add_worker(port, control, "wA")
    f = declared(control, "cursed", "url:dead.example", 100)
    t = Task("use cursed")
    t.add_input(f, "cursed")
    control.submit(t)
    control.pump()
    for attempt in range(1, TRANSFER_RETRIES + 1):
        assert len(port.fetches) == attempt
        control.on_cache_invalid("wA", "cursed", port.fetches[-1].transfer_id)
        control.pump()
        assert len(port.fetches) == attempt  # retry is held off by the backoff
        port.time += TRANSFER_BACKOFF_MAX  # past any jittered delay
        control.pump()
    assert len(port.fetches) == TRANSFER_RETRIES + 1  # every retry allowed
    assert t.state != TaskState.FAILED
    control.on_cache_invalid("wA", "cursed", port.fetches[-1].transfer_id)
    assert t.state == TaskState.FAILED
    assert "cursed" in (t.result.failure or "")


def test_cancel_running_task_reaches_worker():
    port, control = make_control()
    add_worker(port, control, "wA")
    t = Task("long")
    control.submit(t)
    control.pump()
    assert t.state == TaskState.RUNNING
    assert control.cancel(t) is True
    assert port.cancelled == [t]
    assert t.state == TaskState.CANCELLED
    assert control.cancel(t) is False
    assert control.outstanding == 0


def test_library_deploy_retries_when_capacity_frees():
    port, control = make_control()
    from repro.core.control_plane import LibraryState

    add_worker(port, control, "wA", cores=1)
    blocker = Task("sleep")
    control.submit(blocker)
    control.pump()
    assert blocker.state == TaskState.RUNNING
    control.libraries["lib"] = LibraryState("lib", resources=Resources(cores=1))
    control.install_library("lib")
    # no room while the blocker runs
    assert port.launched == []
    finish(port, control, blocker)
    control.pump()
    assert port.launched == [("lib", "wA")]
    control.on_library_ready("wA", "lib")
    assert control.libraries["lib"].state["wA"] == "ready"


# -- parking: READY tasks whose inputs are still being produced --------


def _temp(control, name):
    f = TempFile()
    f.cache_name = name
    control.declare(f)
    return f


def _count_recoveries(control):
    """Wrap ``_recover_lost_inputs`` to count how often the pump asks."""
    calls = []
    inner = control._recover_lost_inputs

    def counted(task):
        calls.append(task.task_id)
        return inner(task)

    control._recover_lost_inputs = counted
    return calls


def _parked_pair(control, port):
    """A running producer and the consumer parked on its output."""
    mid = _temp(control, "mid")
    producer = Task("make").add_output(mid, "out")
    consumer = Task("use").add_input(mid, "in")
    control.submit(producer)
    control.submit(consumer)
    control.pump()
    assert producer.state == TaskState.RUNNING
    assert consumer.state == TaskState.READY
    assert control._ready.parked == 1
    return producer, consumer


def test_parked_task_costs_no_pump_until_its_input_appears():
    port, control = make_control()
    add_worker(port, control, "wA")
    calls = _count_recoveries(control)
    producer, consumer = _parked_pair(control, port)
    # parked on arrival (its producer was queued): no pump asked about it
    assert calls == []
    # still queued as far as every observer is concerned ...
    assert control.ready_depth == 1
    assert consumer in control._ready.tasks()
    assert control._ready.queued_by_tenant() == {"default": 1}
    assert not control.idle()
    # ... but pumps no longer look at it
    for _ in range(5):
        control.pump()
    assert calls == []
    snap = control.metrics.snapshot()
    assert snap["queue.parked"]["value"] == 1
    assert snap["queue.ready_depth"]["value"] == 1
    # the replica's arrival wakes it; the ordinary path then places it
    finish(port, control, producer)
    assert control._ready.parked == 0
    control.pump()
    assert consumer.state == TaskState.RUNNING
    assert calls == []
    assert control.metrics.snapshot()["queue.parked"]["value"] == 0


def test_parked_task_keeps_its_place_in_the_queue():
    port, control = make_control()
    add_worker(port, control, "wA", cores=1)
    producer, consumer = _parked_pair(control, port)
    later = Task("independent, submitted after the consumer")
    control.submit(later)
    finish(port, control, producer)
    control.pump()
    # one core: the woken consumer (older seq) goes first
    assert consumer.state == TaskState.RUNNING
    assert later.state == TaskState.READY


def test_parked_task_fails_when_its_producer_fails():
    port, control = make_control()
    add_worker(port, control, "wA")
    producer, consumer = _parked_pair(control, port)
    finish(port, control, producer, exit_code=1, register_outputs=False)
    assert producer.state == TaskState.FAILED
    assert control._ready.parked == 0  # woken by the terminal state
    control.pump()
    assert consumer.state == TaskState.FAILED
    assert "lineage exhausted" in consumer.result.failure


def test_parked_task_fails_when_its_producer_is_cancelled():
    port, control = make_control()
    add_worker(port, control, "wA")
    producer, consumer = _parked_pair(control, port)
    assert control.cancel(producer)
    control.pump()
    assert consumer.state == TaskState.FAILED
    assert "lineage exhausted" in consumer.result.failure


def test_cancelled_parked_task_is_not_resurrected_by_a_wake():
    port, control = make_control()
    add_worker(port, control, "wA")
    producer, consumer = _parked_pair(control, port)
    assert control.cancel(consumer)
    assert control._ready.parked == 0 and control.ready_depth == 0
    finish(port, control, producer)  # wakes "mid": nobody is waiting
    control.pump()
    assert consumer.state == TaskState.CANCELLED
    assert consumer not in port.started
    assert control.idle()


def test_holder_lost_while_consumer_parked_on_another_input():
    port, control = make_control()
    add_worker(port, control, "wA")
    add_worker(port, control, "wB")
    first = _temp(control, "first")
    second = _temp(control, "second")
    p1 = Task("make first").add_output(first, "out")
    control.submit(p1)
    control.pump()
    finish(port, control, p1)
    p2 = Task("make second").add_output(second, "out")
    consumer = Task("use both").add_input(first, "a").add_input(second, "b")
    control.submit(p2)
    control.submit(consumer)
    control.pump()
    assert control._ready.parked == 1  # waiting on "second" only
    # the only holder of "first" dies (p2 runs elsewhere or is requeued)
    lost = p1.worker_id
    control.worker_left(lost)
    assert p1.state == TaskState.READY  # regenerating "first"
    control.pump()
    if p2.state != TaskState.RUNNING:
        control.pump()
    finish(port, control, p2)
    # woken by "second", found "first" missing, parked on it instead
    control.pump()
    assert consumer.state == TaskState.READY and control._ready.parked == 1
    finish(port, control, p1)
    control.pump()
    assert consumer.state == TaskState.RUNNING
    finish(port, control, consumer)
    assert consumer.state == TaskState.DONE


def test_a_tenant_that_is_all_parked_takes_no_turns():
    port, control = make_control()
    add_worker(port, control, "wA", cores=2)
    mid = _temp(control, "mid")
    producer = Task("make").add_output(mid, "out").set_tenant("a")
    waiting = [
        Task(f"use {i}").add_input(mid, "in").set_tenant("a") for i in range(3)
    ]
    control.submit(producer)
    for t in waiting:
        control.submit(t)
    control.pump()
    assert control._ready.parked == 3
    calls = _count_recoveries(control)
    yielded = []
    inner = control._ready.pop_entries

    def recording(upto):
        for entry in inner(upto):
            yielded.append(entry[3].task_id)
            yield entry

    control._ready.pop_entries = recording
    others = [Task(f"b{i}").set_tenant("b") for i in range(3)]
    for t in others:
        control.submit(t)
    control.pump()  # one core left: b0 runs, b1 and b2 wait for capacity
    assert others[0].state == TaskState.RUNNING
    finish(port, control, others[0])
    control.pump()
    assert others[1].state == TaskState.RUNNING
    # only tenant b was ever dealt a turn, and nobody re-examined a's
    assert set(yielded) == {t.task_id for t in others}
    assert calls == []
    # a's tasks rejoin the round robin the moment their input exists
    finish(port, control, others[1])
    finish(port, control, producer)
    control.pump()
    assert waiting[0].state == TaskState.RUNNING
    assert others[2].state == TaskState.RUNNING


def test_journal_restart_requeues_parked_tasks(tmp_path):
    from repro.core.journal import ControlPlaneJournal

    port, control = make_control(journal=ControlPlaneJournal(str(tmp_path)))
    add_worker(port, control, "wA")
    _parked_pair(control, port)
    control.journal.close()  # the manager dies; parking was never journaled

    port2, control2 = make_control(journal=ControlPlaneJournal(str(tmp_path)))
    assert control2.recover(grace=0.0)
    restored = sorted(control2.tasks.values(), key=lambda t: t.seq)
    producer, consumer = restored
    assert [t.state for t in restored] == [TaskState.READY, TaskState.READY]
    # parked again as it is restored: its producer is queued
    assert control2.ready_depth == 2 and control2._ready.parked == 1
    add_worker(port2, control2, "wB")
    control2.pump()
    assert producer.state == TaskState.RUNNING
    assert control2._ready.parked == 1
    finish(port2, control2, producer)
    control2.pump()
    assert consumer.state == TaskState.RUNNING
    control2.journal.close()


# -- the result fetch plane ----------------------------------------------


def _produced(control, port, holders=("wA",), name="res"):
    """A temp produced by a DONE task, with replicas at ``holders``."""
    for wid in holders:
        add_worker(port, control, wid)
    out = _temp(control, name)
    producer = Task("make").add_output(out, "out")
    control.submit(producer)
    control.pump()
    finish(port, control, producer)
    for wid in holders:
        control.register_replica(wid, name, 10)
    assert producer.state == TaskState.DONE
    return producer


def _waiter(served, tag=None):
    return lambda wid, payload: served.append((tag, wid, payload))


def _fetch_events(control, name="res"):
    return [
        (e.kind, e.worker, e.category)
        for e in control.log
        if e.file == name
        and e.kind in ("transfer_start", "transfer_end", "fetch_retried")
    ]


def test_concurrent_fetches_cost_one_ask_and_one_paired_transfer():
    port, control = make_control()
    _produced(control, port)
    served = []
    control.fetch("res", _waiter(served, "first"))
    control.fetch("res", _waiter(served, "second"))
    assert port.asked == [("wA", "res")]
    assert not control.idle()
    control.fetch_reply("wA", "res", b"bytes")
    assert served == [("first", "wA", b"bytes"), ("second", "wA", b"bytes")]
    assert control.idle()
    assert _fetch_events(control) == [
        ("transfer_start", "wA", "@fetch"),
        ("transfer_end", "wA", "@fetch"),
    ]
    assert control.transfer_counts["fetch"] == 1
    assert control.bytes_by_source["fetch"] == len(b"bytes")


def test_fetch_moves_on_when_the_asked_holder_leaves_or_denies():
    port, control = make_control()
    _produced(control, port, holders=("wA", "wB", "wC"))
    served = []
    control.fetch("res", _waiter(served))
    control.worker_left("wA")
    assert port.asked == [("wA", "res"), ("wB", "res")]
    control.fetch_reply("wB", "res", None)
    assert port.asked[-1] == ("wC", "res")
    # a stale miss from a holder the fetch already moved on from
    control.fetch_reply("wB", "res", None)
    assert len(port.asked) == 3 and not served
    control.fetch_reply("wC", "res", b"x")
    assert served == [(None, "wC", b"x")]
    assert _fetch_events(control) == [
        ("transfer_start", "wA", "@fetch"),
        ("fetch_retried", "wA", "worker_lost"),
        ("transfer_start", "wB", "@fetch"),
        ("fetch_retried", "wB", "not_found"),
        ("transfer_start", "wC", "@fetch"),
        ("transfer_end", "wC", "@fetch"),
    ]
    assert control.metrics.snapshot()["events.fetch_retried"]["value"] == 2


def _count_regenerations(control):
    calls = []
    inner = control._regenerate

    def counted(name):
        calls.append(name)
        return inner(name)

    control._regenerate = counted
    return calls


def test_best_effort_fetch_never_regenerates_but_a_mixed_one_does():
    port, control = make_control()
    producer = _produced(control, port)
    control.worker_left("wA")  # the only replica is gone
    add_worker(port, control, "wB")
    calls = _count_regenerations(control)

    served = []
    control.fetch("res", _waiter(served), best_effort=True)
    assert served == [(None, None, None)] and calls == []
    assert producer.state == TaskState.DONE

    add_worker(port, control, "wC")
    control.register_replica("wC", "res", 10)
    served.clear()
    control.fetch("res", _waiter(served, "retain"), best_effort=True)
    control.fetch("res", _waiter(served, "app"))
    control.worker_left("wC")
    assert calls == ["res"] and not served  # parked on the rerun
    assert producer.state == TaskState.READY


def test_parked_fetch_is_advanced_by_the_regenerated_replica():
    port, control = make_control()
    producer = _produced(control, port)
    served = []
    control.fetch("res", _waiter(served))
    control.fetch_reply("wA", "res", None)  # evicted behind our back
    assert producer.state == TaskState.READY  # lineage rerun, fetch parked
    assert port.asked == [("wA", "res")]
    control.replicas.remove_replica("res", "wA")
    control.pump()
    finish(port, control, producer)  # registers the fresh copy on wA
    # wA was tried and could not serve; it is asked again all the same
    assert port.asked == [("wA", "res"), ("wA", "res")]
    control.fetch_reply("wA", "res", b"again")
    assert served == [(None, "wA", b"again")]


def test_fetch_ttl_reap_settles_none_exactly_once_on_the_port_clock():
    port, control = make_control()
    _produced(control, port)
    served = []
    control.fetch("res", _waiter(served))  # wA never answers
    port.time = FETCH_TTL - 1
    control.pump()
    assert not served
    port.time = FETCH_TTL + 1
    control.pump()
    control.pump()
    assert served == [(None, None, None)]
    assert control.idle()
    # the open ask is closed in the log, and a late reply is ignored
    assert _fetch_events(control)[-1] == ("fetch_retried", "wA", "abandoned")
    control.fetch_reply("wA", "res", b"late")
    assert len(served) == 1


# -- how an attempt ends: one entry point, both runtimes -------------------


def _running_value_task(**knobs):
    """A python task as the real manager prepares it (its result
    envelope is the output ``output()`` reads), running at wA."""
    port, control = make_control(**knobs)
    add_worker(port, control, "wA")
    task = PythonTask(len, "abc")
    task.outputs.append((PythonTask.RESULT_NAME, _temp(control, "res")))
    control.submit(task)
    control.pump()
    assert task.state == TaskState.RUNNING
    return port, control, task


def _ended(control, task, exit_code=0, announced=True):
    """What a runtime does with a worker's report: hand the attempt, and
    the outputs the report lists as cached, to the plane."""
    control.attempt_ended(
        task.worker_id,
        task.task_id,
        TaskResult(exit_code=exit_code),
        produced=[("res", 10)] if announced else (),
    )


def test_value_retrieval_rides_the_plane_as_a_paired_retrieve():
    port, control, task = _running_value_task()
    # the report names the envelope it left: the retrieval asks its
    # holder at once
    _ended(control, task)
    assert task.state == TaskState.WAITING_RETRIEVAL
    assert port.asked == [("wA", "res")] and not control.idle()
    assert violations(control) == []
    control.fetch_reply("wA", "res", b"v")
    assert task.state == TaskState.DONE and task.output() == b"v"
    assert port.decoded == [(task, b"v")] and port.delivered == [task]
    assert control.idle()
    assert _fetch_events(control) == [
        ("transfer_start", "wA", "@retrieve"),
        ("transfer_end", "wA", "@retrieve"),
    ]
    assert control.transfer_counts["retrieve"] == 1
    assert not control.transfer_counts["fetch"]


def test_an_awaited_output_that_exists_nowhere_fails_the_task_naming_it():
    port, control, task = _running_value_task()
    _ended(control, task, announced=False)  # cached nowhere, listed by no report
    assert task.state == TaskState.FAILED
    assert "output res never produced (exit 0)" in task.result.failure
    assert port.asked == [] and control.idle()


def test_an_attempt_that_left_no_envelope_waits_for_none():
    port, control, task = _running_value_task()
    _ended(control, task, exit_code=2, announced=False)
    assert task.state == TaskState.FAILED and port.asked == []
    assert task.result.failure is None and task.result.exit_code == 2


def _holder_leaves_mid_retrieval(**knobs):
    port, control, task = _running_value_task(**knobs)
    _ended(control, task)
    assert port.asked == [("wA", "res")]
    control.worker_left("wA")
    return port, control, task


def test_retrieval_whose_only_holder_leaves_settles_instead_of_parking():
    """Its producer is the task *waiting* for the fetch, not one about
    to deliver (parking on it would hold both until the TTL), and a
    completion nothing backs is an attempt to repeat, not an outcome."""
    port, control, task = _holder_leaves_mid_retrieval()
    assert task.state == TaskState.READY and task.retries_used == 1
    assert not control._finishing and not control._fetches
    assert port.delivered == [] and violations(control) == []
    assert [(e.category, e.size) for e in control.log.events("task_requeued")] == [
        ("result_lost", 1)
    ]
    assert _fetch_events(control) == [
        ("transfer_start", "wA", "@retrieve"),
        ("fetch_retried", "wA", "worker_lost"),
    ]
    # the second attempt runs elsewhere and delivers once
    add_worker(port, control, "wB")
    control.pump()
    assert task.state == TaskState.RUNNING and task.worker_id == "wB"
    _ended(control, task)
    control.fetch_reply("wB", "res", b"again")
    assert task.state == TaskState.DONE and task.output() == b"again"
    assert port.delivered == [task] and control.idle()


def test_a_lost_result_takes_its_inputs_again_for_the_rerun():
    port, control = make_control()
    add_worker(port, control, "wA")
    payload = declared(control, "payload", cache=CacheLevel.TASK)
    task = PythonTask(len, "abc")
    task.inputs.append(("in", payload))
    task.outputs.append((PythonTask.RESULT_NAME, _temp(control, "res")))
    control.submit(task)
    control.pump()
    control.on_cache_update("wA", "payload", 100, port.pushes[0].transfer_id)
    control.pump()
    _ended(control, task)
    # the attempt is over: its task-lifetime input was collected
    assert control._input_refs["payload"] == 0
    assert ("wA", "payload") in port.deleted
    add_worker(port, control, "wB")
    control.worker_left("wA")
    assert task.state == TaskState.READY and control._input_refs["payload"] == 1
    control.pump()
    assert [r.dest_worker for r in port.pushes] == ["wA", "wB"]


def test_a_lost_result_beyond_the_loss_budget_fails_naming_the_object():
    port, control, task = _holder_leaves_mid_retrieval(loss_retries=0)
    assert task.state == TaskState.FAILED and task.retries_used == 0
    assert task.result.failure == "result res lost with its last holder"
    assert port.delivered == [task] and control.idle()
    with pytest.raises(RuntimeError, match="lost its result res 1 times"):
        _holder_leaves_mid_retrieval(loss_retries=0, strict_loss=True)


def test_a_retrieval_behind_an_earlier_fetch_is_lost_with_its_holder():
    """A fetch of the envelope parked on its producer, asked the holder
    the report named, and the completion's retrieval joined it: when
    that holder leaves, both settle at once — the retrieval does not
    park on its own producer until the TTL."""
    port, control, task = _running_value_task()
    served = []
    control.fetch("res", _waiter(served))
    assert port.asked == []  # parked: the producer is still running
    _ended(control, task)
    assert port.asked == [("wA", "res")]
    assert task.state == TaskState.WAITING_RETRIEVAL
    control.worker_left("wA")
    assert served == [(None, None, None)]
    assert task.state == TaskState.READY and task.retries_used == 1
    assert not control._fetches and not control._finishing
    assert violations(control) == []


# -- which reports stand ---------------------------------------------------


def test_a_report_from_another_worker_is_ignored_and_leaks_nothing():
    """t1 runs at wA; a report of t1 from wB used to finish it and leave
    wA's core allocated to it forever (a third task never placed)."""
    port, control = make_control()
    add_worker(port, control, "wA", cores=1)
    add_worker(port, control, "wB", cores=1)
    t1 = Task("one").add_output(_temp(control, "out1"), "o")
    control.submit(t1)
    control.pump()
    assert t1.worker_id == "wA" and t1.state == TaskState.RUNNING
    control.attempt_ended(
        "wB", t1.task_id, TaskResult(exit_code=0), produced=[("out1", 5)]
    )
    assert t1.state == TaskState.RUNNING and port.delivered == []
    assert control.replicas.replica_count("out1") == 0
    assert port.stored == [] and port.deleted == [("wB", "out1")]
    (ignored,) = control.log.events("report_ignored")
    assert (ignored.worker, ignored.task, ignored.category) == ("wB", t1.task_id, "wA")
    assert control.metrics.snapshot()["events.report_ignored"]["value"] == 1
    assert violations(control) == []
    # the real report ends it, and both workers take work again
    control.attempt_ended(
        "wA", t1.task_id, TaskResult(exit_code=0), produced=[("out1", 5)]
    )
    assert t1.state == TaskState.DONE
    assert control.replicas.locate("out1") == {"wA"}
    t2, t3 = Task("two"), Task("three")
    control.submit(t2)
    control.submit(t3)
    control.pump()
    assert {t2.worker_id, t3.worker_id} == {"wA", "wB"}
    assert t2.state == t3.state == TaskState.RUNNING


def test_outputs_of_an_attempt_sent_back_are_unlinked_not_registered():
    """A resource-exceeded attempt is requeued: what its report lists
    becomes no replica, and the worker is told to unlink it — unless the
    plane knows a replica of that name there already."""
    port, control = make_control()
    add_worker(port, control, "wA", cores=8)
    kept = declared(control, "kept", NO_SOURCE)
    t = Task("hog").add_output(_temp(control, "part"), "o")
    t.add_output(kept, "k")
    control.register_replica("wA", "kept", 3)
    control.submit(t)
    control.pump()
    control.attempt_ended(
        "wA",
        t.task_id,
        TaskResult(exit_code=137, exceeded=["memory"]),
        produced=[("part", 4), ("kept", 3)],
    )
    assert t.state == TaskState.READY and t.retries_used == 1
    assert control.replicas.replica_count("part") == 0
    assert port.stored == [] and port.deleted == [("wA", "part")]
    assert control.replicas.locate("kept") == {"wA"}


def test_a_stale_report_leaves_a_name_on_its_way_to_that_worker():
    """x is being copied to wB when a report of its producer's earlier
    attempt at wB arrives late: the report registers nothing, and wB is
    not told to unlink the copy the plane is about to register."""
    port, control = make_control()
    add_worker(port, control, "wA", cores=1)
    producer = Task("make x").add_output(_temp(control, "x"), "x")
    control.submit(producer)
    control.pump()
    assert producer.worker_id == "wA"
    control.attempt_ended(
        "wA", producer.task_id, TaskResult(exit_code=0), produced=[("x", 7)]
    )
    assert producer.state == TaskState.DONE
    add_worker(port, control, "wB", cores=2)
    consumer = Task("use x").add_input(producer.outputs[0][1], "x")
    consumer.set_cores(2)  # only wB fits: x moves wA -> wB
    control.submit(consumer)
    control.pump()
    (copy,) = port.fetches
    assert (copy.cache_name, copy.source, copy.dest_worker) == ("x", "wA", "wB")
    control.attempt_ended(
        "wB", producer.task_id, TaskResult(exit_code=0), produced=[("x", 7)]
    )
    assert port.deleted == [] and control.replicas.locate("x") == {"wA"}
    control.on_cache_update("wB", "x", 7, copy.transfer_id)
    assert control.replicas.locate("x") == {"wA", "wB"}
    assert violations(control) == []


def test_a_rerun_of_a_task_whose_value_was_delivered_fetches_nothing():
    port, control, task = _running_value_task()
    _ended(control, task)
    control.fetch_reply("wA", "res", b"v")
    consumer = Task("use").add_input(task.outputs[0][1], "in")
    control.submit(consumer)
    control.replica_evicted("wA", "res")  # lost before the consumer ran
    control.pump()
    assert task.state == TaskState.RUNNING and task.retries_used == 1
    _ended(control, task)
    assert task.state == TaskState.DONE and task.output() == b"v"
    assert port.asked == [("wA", "res")] and len(port.decoded) == 1
    assert port.delivered == [task]


def test_a_real_workers_eviction_is_logged_and_counted_as_the_simulators():
    """A real worker reports an eviction as ``cache_invalid`` with no
    transfer: it takes the simulator's path (``replica_evicted``), so the
    manager logs the deletion and counts the eviction."""
    port, control = make_control()
    add_worker(port, control, "wA")
    declared(control, "cold", NO_SOURCE, 40, kind=TempFile)
    control.register_replica("wA", "cold", 40)
    control.on_cache_invalid("wA", "cold", None, "evicted: cache pressure")
    assert control.replicas.locate("cold") == set()
    (gone,) = control.log.events("file_deleted")
    assert (gone.worker, gone.file, gone.size, gone.category) == (
        "wA", "cold", 40, "evicted",
    )
    snap = control.metrics.snapshot()
    assert snap["cache.evictions"]["value"] == 1
    assert snap["cache.eviction_bytes"]["value"] == 40


def test_a_cancel_while_the_value_is_on_its_way_leaves_nothing_waiting():
    port, control, task = _running_value_task()
    _ended(control, task)
    assert control.cancel(task) and task.state == TaskState.CANCELLED
    assert violations(control) == []
    control.fetch_reply("wA", "res", b"late")
    assert task.state == TaskState.CANCELLED and control.idle()
    assert port.delivered == [task]


@pytest.mark.parametrize("keep", [False, True])
def test_a_bring_back_output_comes_home_before_its_task_is_done(keep):
    """Shared-storage mode (paper Fig. 13a), decided in the plane."""
    port, control = make_control()
    add_worker(port, control, "wA")
    out = declared(control, "res", NO_SOURCE, kind=RetrievedFile)
    out.bring_back, out.keep_at_worker = True, keep
    task = Task("emit").add_output(out, "o")
    control.submit(task)
    control.pump()
    control.attempt_ended(
        "wA", task.task_id, TaskResult(exit_code=0), produced=[("res", 7)]
    )
    assert port.stored == [("wA", "res", 7)] and control.size_of("res") == 7
    assert task.state == TaskState.WAITING_RETRIEVAL
    assert port.asked == [("wA", "res")]
    control.fetch_reply("wA", "res", b"")
    assert task.state == TaskState.DONE
    # the manager serves it from now on; the worker copy left the cluster
    assert control.sources.get("res") == MANAGER_SOURCE
    assert control.replicas.has_replica("res", "wA") is keep
    assert (("wA", "res") in port.deleted) is not keep


def test_a_call_finished_by_reference_is_delivered_with_its_ref():
    from repro.core.library import FunctionCall

    port, control = make_control()
    add_worker(port, control, "wA")
    call = FunctionCall("lib", "f").set_by_reference()
    call.outputs.append((FunctionCall.RESULT_NAME, _temp(control, "res")))
    control.libraries["lib"] = LibraryState("lib")
    control.install_library("lib")
    control.on_library_ready("wA", "lib")
    control.submit(call)
    control.pump()
    _ended(control, call)
    assert call.state == TaskState.DONE and port.asked == []
    (ref,) = port.refs
    assert (ref.cache_name, ref.size, ref.holders) == ("res", 10, ("wA",))
    # a failed one has no result to refer to, and says why
    again = FunctionCall("lib", "f").set_by_reference()
    again.outputs.append((FunctionCall.RESULT_NAME, _temp(control, "res2")))
    control.submit(again)
    control.pump()
    _ended(control, again, exit_code=3, announced=False)
    assert again.state == TaskState.FAILED and len(port.refs) == 1
    assert again.result.failure == "invocation failed (exit 3)"


# -- the autoscale tick: one rule, ticked by either runtime ---------------


def _autoscaled(n_workers, **scaler):
    port, control = make_control()
    for i in range(n_workers):
        add_worker(port, control, f"w{i}", cores=1)
    return port, control, Autoscaler(tasks_per_worker=1, cooldown=10.0, **scaler)


def _autoscale_events(control):
    return [(e.category, e.size) for e in control.log.events("autoscale")]


def test_a_deep_ready_queue_asks_the_runtime_for_workers():
    port, control, scaler = _autoscaled(1, max_workers=4)
    for i in range(6):
        control.submit(Task(f"t{i}"))
    assert control.autoscale_tick(scaler) == (3, 0)  # clamped to max_workers
    assert _autoscale_events(control) == [("up", 3)]
    assert control.metrics.snapshot()["elastic.scale_up"]["value"] == 3
    # inside the policy's cooldown nothing happens
    port.time = 9.0
    assert control.autoscale_tick(scaler) == (0, 0)
    assert _autoscale_events(control) == [("up", 3)]


def test_an_idle_fleet_drains_its_emptiest_workers():
    port, control, scaler = _autoscaled(5, min_workers=1, hysteresis=0.0)
    busy = Task("busy")
    control.submit(busy)
    control.pump()
    assert busy.worker_id == "w0"
    control.register_replica("w1", "a", 300)
    control.register_replica("w2", "b", 100)
    control.drain_worker("w4")  # already on its way out: not fleet
    port.released.clear()
    port.time = 100.0
    # the queue is empty: 4 → 1, by fewest running tasks, then fewest
    # cached bytes, then lowest id — never one already draining
    assert control.autoscale_tick(scaler) == (0, 3)
    drained = [e.worker for e in control.log.events("worker_drain")]
    assert drained == ["w4", "w3", "w2", "w1"]
    assert _autoscale_events(control) == [("down", 3)]
    assert control.metrics.snapshot()["elastic.scale_down"]["value"] == 3
    assert control.draining == {"w1", "w2", "w3", "w4"}
    # the survivor is the one doing work; a second tick finds the floor
    port.time = 200.0
    assert control.autoscale_tick(scaler) == (0, 0)


# -- memoization: eligibility, naming and veto decided in the plane ------


def _memo_plane(tmp_path, **knobs):
    store = MemoStore(str(tmp_path / "memo"))
    port, control = make_control(memo=store, **knobs)
    add_worker(port, control, "wA")
    return store, port, control


#: one Namer per plane, as each runtime has: a second one of the same
#: seed and nonce would repeat its random names, which are refused
_namers: "weakref.WeakKeyDictionary[ControlPlane, Namer]" = weakref.WeakKeyDictionary()


def _submit_named(control, task):
    # what both runtimes do: outputs named by the plane with their Namer
    namer = _namers.setdefault(control, Namer(seed=0, run_nonce="run"))
    control.submit(task, namer)
    return task


def _value_task(control):
    """A python task as the real manager prepares it: the result
    envelope is the output whose content ``output()`` returns."""
    t = PythonTask(len, "abc").set_deterministic()
    t.outputs.append((PythonTask.RESULT_NAME, TempFile()))
    return _submit_named(control, t)


def _record(port, control, task):
    """Run a memo-missed task to completion, so its entry is recorded."""
    control.pump()
    finish(port, control, task)
    name = task.value_output().cache_name
    control.fetch_reply("wA", name, b"live")  # its value comes home
    assert task.state == TaskState.DONE and port.persisted[-1][0] is task
    port.decoded.clear()
    return task.merkle, name


@pytest.mark.parametrize(
    "payload, digest_ok, decodes, served",
    [
        (None, True, True, False),      # nothing retained
        (b"env", False, True, False),   # retained copy fails its digest
        (b"env", True, False, False),   # the runtime cannot decode it
        (b"env", True, True, True),
    ],
)
def test_memo_hit_on_a_value_task_needs_a_verified_decodable_payload(
    tmp_path, payload, digest_ok, decodes, served
):
    store, port, control = _memo_plane(tmp_path)
    merkle, name = _record(port, control, _value_task(control))
    if payload is not None:
        md5 = store.store_payload(name, payload)
        store.set_output_md5(merkle, name, md5 if digest_ok else "0" * 32)
    port.decodes = decodes
    again = _value_task(control)
    assert again.value_output().cache_name == name
    control.pump()
    hits = len(control.log.events("memo_hit"))
    if served:
        assert hits == 1 and again.state == TaskState.DONE
        assert port.decoded == [(again, payload)]
    else:
        # vetoed, not invalidated: the live replica still backs the
        # entry, the task just runs to produce its value
        assert hits == 0 and again.state == TaskState.RUNNING
        assert not control.log.events("memo_invalidated")
        assert len(control.log.events("memo_miss")) == 2
        assert len(port.decoded) == (payload is not None and digest_ok)


def test_memo_hit_on_a_command_task_never_asks_for_a_value(tmp_path):
    _store, port, control = _memo_plane(tmp_path)

    def command():
        t = Task("sort in > out").set_deterministic().add_output(TempFile(), "out")
        return _submit_named(control, t)

    first = command()
    control.pump()
    finish(port, control, first)
    again = command()
    control.pump()
    assert again.state == TaskState.DONE
    assert len(control.log.events("memo_hit")) == 1
    assert port.decoded == [] and port.started == [first]


def test_only_memo_eligible_outputs_take_memo_names(tmp_path):
    _store, _port, control = _memo_plane(tmp_path, memo_opt_out=["alice"])

    def out_name(deterministic=True, tenant="default"):
        t = Task("make out").set_deterministic(deterministic).set_tenant(tenant)
        t.add_output(TempFile(), "out")
        return _submit_named(control, t).outputs[0][1].cache_name

    assert out_name().startswith("memo-md5-")
    # the opted-out tenant and the impure task keep run-salted names
    assert "-rnd-run-" in out_name(tenant="alice")
    assert "-rnd-run-" in out_name(deterministic=False)
    # ... and without a store nothing is eligible at all
    _port2, bare = make_control()
    t = Task("make out").set_deterministic().add_output(TempFile(), "out")
    assert "-rnd-run-" in _submit_named(bare, t).outputs[0][1].cache_name


# -- a workflow's edges: declare, admit, retain, end — one text each -------


@pytest.mark.parametrize(
    "make, source",
    [
        (lambda: BufferFile(b"bytes"), MANAGER_SOURCE),
        (lambda: LocalFile("/data/ref.fa"), MANAGER_SOURCE),
        (lambda: URLFile("https://archive.example:8080/db.tar"), "url:archive.example:8080"),
        (lambda: URLFile("file:///shared/db.tar"), "url:localfs"),
        (lambda: TempFile(), NO_SOURCE),
        (lambda: MiniTaskFile(MiniTask("tar -xf in")), MINITASK_SOURCE),
    ],
)
def test_a_declared_file_is_served_by_the_source_its_class_names(make, source):
    _port, control = make_control()
    f = make()
    f.cache_name = "obj"
    control.declare(f, 7)
    assert control.sources.get("obj") == source and control.size_of("obj") == 7


def test_a_plain_file_must_name_its_source():
    _port, control = make_control()
    f = File()
    f.cache_name = "dataset"
    with pytest.raises(ManagerError, match="names no source"):
        control.declare(f, 7)
    assert "dataset" not in control.registry
    control.declare(f, 7, "url:mirror")  # the simulator's stand-in for content
    assert control.sources.get("dataset") == "url:mirror"


def _refused(control, task, match):
    """``submit`` raises and leaves nothing of ``task`` behind."""


    def recorded():
        return (
            dict(control.tasks), +control._input_refs, control.outstanding,
            len(control._ready), len(control.journal.submits),
            {n: (a.submitted, a.outstanding) for n, a in control.tenants.items()},
        )

    before = recorded()
    with pytest.raises(ManagerError, match=match):
        control.submit(task, Namer(seed=0, run_nonce="run"))
    assert recorded() == before


def test_submit_refuses_and_records_nothing(tmp_path):
    from repro.core.journal import ControlPlaneJournal

    _port, control = make_control(journal=ControlPlaneJournal(str(tmp_path)))
    control.set_tenant_quota("alice", task_quota=1)
    data = declared(control, "data")
    first = Task("use").add_input(data, "in").set_tenant("alice")
    control.submit(first)
    assert control._input_refs["data"] == 1

    _refused(control, first, "already submitted")
    stranger = Task("use").add_input(BufferFile(b"never declared"), "in")
    _refused(control, stranger, "was not declared")
    out = TempFile()
    over = Task("make").add_input(data, "in").add_output(out, "out").set_tenant("alice")
    _refused(control, over, "quota")
    # a refused task is untouched: unnamed, unstamped, free to come back
    assert over.state == TaskState.CREATED and over.task_id is None
    assert out.cache_name is None and len(control.registry) == 1
    control.set_tenant_quota("alice", task_quota=2)
    control.submit(over, Namer(seed=0, run_nonce="run"))
    assert over.state == TaskState.READY and out.cache_name in control.registry
    control.journal.close()


def test_a_library_with_an_undeclared_environment_file_is_refused():
    _port, control = make_control()
    control.libraries["lib"] = LibraryState("lib", [BufferFile(b"env")])
    with pytest.raises(ManagerError, match="was not declared"):
        control.install_library("lib")
    assert not control.libraries["lib"].installed


def test_only_small_outputs_someone_live_holds_are_handed_over_for_retention(tmp_path):
    store = MemoStore(str(tmp_path / "memo"), payload_limit=100)
    port, control = make_control(memo=store)
    add_worker(port, control, "wA")
    task = Task("make a b c").set_deterministic()
    for name in "abc":
        task.add_output(TempFile(), name)
    control.submit(task, Namer(seed=0, run_nonce="run"))
    small, big, gone = (f.cache_name for _, f in task.outputs)
    control.pump()
    got = control.on_task_result("wA", task.task_id, TaskResult(exit_code=0))
    control.on_cache_update("wA", small, 100)  # at the limit: kept
    control.on_cache_update("wA", big, 101)
    control.on_cache_update("wA", gone, 10)
    control.replica_evicted("wA", gone)  # nobody to fetch it from
    control.complete_task(got, got.result or TaskResult(exit_code=0))
    assert task.state == TaskState.DONE
    assert port.persisted == [(task, task.merkle, [small])]
    assert len(store.get(task.merkle).outputs) == 3  # all recorded, one retained


def test_end_workflow_stops_libraries_then_collects_in_a_fixed_order():
    port, control = make_control()
    for wid in ("wB", "wA"):
        add_worker(port, control, wid)
    control.libraries["lib"] = LibraryState("lib")
    control.install_library("lib")
    for wid in ("wB", "wA"):
        control.on_library_ready(wid, "lib")
    declared(control, "first")
    declared(control, "second", cache=CacheLevel.TASK)
    declared(control, "kept", cache=CacheLevel.WORKER)
    for wid, names in (("wB", "second first kept"), ("wA", "kept second first")):
        for name in names.split():
            control.register_replica(wid, name, 10)
    served = []
    control.fetch("first", lambda wid, payload: served.append(payload))
    mark = len(control.log.events())

    control.end_workflow()

    assert control.closed and served == [None]
    tail = [
        (e.kind, e.worker, e.file or e.task)
        for e in control.log.events()[mark:]
        if e.kind != "fetch_retried"
    ]
    assert tail == [
        ("task_end", "wB", "lib@wB"),
        ("task_end", "wA", "lib@wA"),
        ("file_deleted", "wA", "first"),
        ("file_deleted", "wA", "second"),
        ("file_deleted", "wB", "first"),
        ("file_deleted", "wB", "second"),
        ("workflow_done", None, None),
    ]
    assert port.deleted == [(w, n) for _k, w, n in tail[2:6]]
    # WORKER-level objects stay for the next workflow; nothing else does
    assert {n: control.replicas.locate(n) for n in ("first", "second", "kept")} == {
        "first": set(), "second": set(), "kept": {"wA", "wB"},
    }
    assert not control.libraries["lib"].state
    assert all(not s.pool.holders() for s in control.workers.values())
    control.pump()  # a closed plane pumps nothing
    assert len(control.log.events()) == mark + len(tail) + 1
