"""Who wakes a waiting stage — one test per wake, against the fake port.

A dispatched task, a mini-task job or a library deployment whose inputs
are not all at its worker waits, and is planned again only when an
event that can change its plan says so.  Each test here builds the
smallest cluster in which exactly one such event stands between a
stage and its next step, lets nothing else happen, and checks both
that the step is taken on the next pump and — counted, not timed — how
many stages were planned to take it.
"""

from collections import Counter

from repro.core.control_plane import (
    BLOCKLIST_THRESHOLD,
    NO_SOURCE,
    ControlPlane,
    LibraryState,
)
from repro.core.resources import Resources
from repro.core.scheduler import Scheduler
from repro.core.task import Task, TaskState
from repro.core.transfer_table import MANAGER_SOURCE
from tests.core.test_control_plane import (
    add_worker,
    declared,
    finish,
    make_control,
)
from tests.core.test_pump_budget import _counting
from tests.stage_wakes import overslept


def _count(monkeypatch, cls, name):
    calls = Counter()
    _counting(monkeypatch, calls, cls, name)
    return calls


def _one_task_per_worker(port, control, n, shared=None):
    """``n`` workers, ``n`` one-input tasks (each its own file unless
    ``shared``), placed one per worker by a 1-core fleet."""
    tasks = []
    for i in range(n):
        add_worker(port, control, f"w{i:02d}", cores=1)
        f = shared or declared(control, f"in{i}", MANAGER_SOURCE, 100)
        tasks.append(Task(f"use {i}").add_input(f, "in"))
        control.submit(tasks[-1])
    control.pump()
    assert all(t.state == TaskState.DISPATCHED for t in tasks)
    return tasks


def test_a_freed_manager_slot_goes_to_the_oldest_waiter_and_wakes_no_other(monkeypatch):
    port, control = make_control(source_transfer_limit=1)
    tasks = _one_task_per_worker(port, control, 6)
    assert [r.cache_name for r in port.pushes] == ["in0"]
    plans = _count(monkeypatch, Scheduler, "plan_transfers")
    for i in range(5):
        done = port.pushes[i]
        control.on_cache_update(done.dest_worker, done.cache_name, 100, done.transfer_id)
        control.pump()
        # dispatch order, one per freed slot
        assert [r.cache_name for r in port.pushes] == [f"in{j}" for j in range(i + 2)]
        assert tasks[i].state == TaskState.RUNNING
    # per completion: the task whose input landed, the one that took the
    # slot, and the next in line finding the slot already gone
    assert plans["plan_transfers"] <= 3 * 5
    assert not overslept(control)


def test_a_new_replica_serves_its_queue_only_while_it_has_slots(monkeypatch):
    port, control = make_control(source_transfer_limit=1, worker_transfer_limit=2)
    common = declared(control, "common", "url:host", 100)
    _one_task_per_worker(port, control, 12, shared=common)
    assert len(port.fetches) == 1 and port.fetches[0].source == "url:host"
    first = port.fetches[0]
    control.on_cache_update(first.dest_worker, "common", 100, first.transfer_id)
    control.pump()
    # eleven wait; the new holder has two slots, and the oldest two take them
    assert [(r.source, r.dest_worker) for r in port.fetches[1:]] == [
        ("w00", "w01"),
        ("w00", "w02"),
    ]
    plans = _count(monkeypatch, Scheduler, "plan_transfers")
    second = port.fetches[1]
    control.on_cache_update("w01", "common", 100, second.transfer_id)
    control.pump()
    # w00 has one slot again and w01 two: the next three of the nine
    # waiters take them, each from the least-loaded holder, and the
    # other six are not so much as planned
    assert [(r.source, r.dest_worker) for r in port.fetches[3:]] == [
        ("w01", "w03"),
        ("w00", "w04"),
        ("w01", "w05"),
    ]
    assert plans["plan_transfers"] <= 5
    assert not overslept(control)


def test_blocklisting_the_holder_a_stage_waits_on_sends_it_to_the_source():
    port, control = make_control(worker_transfer_limit=1)
    for wid in ("wA", "wB", "wC"):
        add_worker(port, control, wid, cores=1)
    f = declared(control, "data", MANAGER_SOURCE, 100)
    control.register_replica("wA", "data", 100)
    hog = Task("fills wA")
    control.submit(hog)
    control.pump()
    assert hog.worker_id == "wA"
    users = [Task(f"use {i}").add_input(f, "data") for i in range(2)]
    for t in users:
        control.submit(t)
    control.pump()
    # wA serves one peer at a time: the second consumer waits for its slot
    assert [(r.source, r.dest_worker) for r in port.fetches] == [("wA", "wB")]
    assert port.pushes == []
    control._note_worker_failure("wA", weight=BLOCKLIST_THRESHOLD)
    assert "wA" in control.blocklist
    control.pump()
    # no trusted holder is left to wait for: the manager serves it
    assert [(r.source, r.dest_worker) for r in port.pushes] == [(MANAGER_SOURCE, "wC")]
    assert not overslept(control)


def test_bytes_coming_home_to_the_manager_wake_the_stage_that_had_no_source():
    port, control = make_control(worker_transfer_limit=1)
    for wid in ("wA", "wB", "wC"):
        add_worker(port, control, wid, cores=1)
    f = declared(control, "partial", NO_SOURCE, 100)
    control.register_replica("wA", "partial", 100)
    hog = Task("fills wA")
    control.submit(hog)
    control.pump()
    users = [Task(f"use {i}").add_input(f, "partial") for i in range(2)]
    for t in users:
        control.submit(t)
    control.pump()
    assert [(r.source, r.dest_worker) for r in port.fetches] == [("wA", "wB")]
    control._note_worker_failure("wA", weight=BLOCKLIST_THRESHOLD)
    control.pump()
    assert port.pushes == []  # the only holder is busy, and nothing else has it
    control.set_fixed_source("partial", MANAGER_SOURCE)
    control.pump()
    assert [(r.source, r.dest_worker) for r in port.pushes] == [(MANAGER_SOURCE, "wC")]
    assert not overslept(control)


def test_a_backoff_keeps_its_stage_on_every_pump_until_the_clock_passes_it():
    port, control = make_control()
    add_worker(port, control, "wA")
    f = declared(control, "flaky", MANAGER_SOURCE, 100)
    t = Task("use").add_input(f, "in")
    control.submit(t)
    control.pump()
    failed = port.pushes[0]
    control.on_cache_invalid("wA", "flaky", failed.transfer_id)
    control.pump()
    # the only source is backing off: nothing to start, and no event
    # will say when — only the clock
    assert len(port.pushes) == 1
    (stage,) = control._deferred_staging
    assert stage.consumer is t
    port.time += 60.0
    control.pump()
    assert len(port.pushes) == 2 and port.pushes[1].cache_name == "flaky"
    assert not control._deferred_staging


def test_a_library_that_did_not_fit_is_tried_again_only_when_its_worker_frees_room(
    monkeypatch,
):
    port, control = make_control()
    add_worker(port, control, "wA", cores=1)
    add_worker(port, control, "wB", cores=1)
    blockers = [Task("sleep"), Task("sleep")]
    for t in blockers:
        control.submit(t)
    control.pump()
    control.libraries["lib"] = LibraryState("lib", resources=Resources(cores=1))
    control.install_library("lib")
    assert control._undeployed == {"wA", "wB"}
    deploys = _count(monkeypatch, ControlPlane, "_deploy_library")
    for _ in range(10):
        control.pump()
    assert deploys["_deploy_library"] == 0  # nothing changed: nothing scanned
    finish(port, control, blockers[0])
    control.pump()
    assert deploys["_deploy_library"] == 1
    assert port.launched == [("lib", blockers[0].worker_id)]
    assert control._undeployed == {blockers[1].worker_id}


def test_a_stage_that_starts_or_is_dropped_leaves_every_index():
    port, control = make_control(source_transfer_limit=1)
    tasks = _one_task_per_worker(port, control, 3)
    assert control._slot_queue and control._deferred_on and control._consumers
    control.cancel(tasks[2])  # dropped while queued behind the manager
    control.worker_left("w01")  # dropped with its worker, placed again on w02
    control.pump()
    assert tasks[1].worker_id == "w02" and len(port.pushes) == 1
    for i in range(2):  # and the other two start
        done = port.pushes[i]
        control.on_cache_update(done.dest_worker, done.cache_name, 100, done.transfer_id)
        control.pump()
        assert tasks[i].state == TaskState.RUNNING
    for index in (
        control._dispatched,
        control._task_stages,
        control._consumers,
        control._deferred_on,
        control._slot_queue,
        control._stage_dirty,
        control._slot_offers,
        control._deferred_staging,
        control._staging,
    ):
        assert not index
