"""What a finished task leaves behind, counted — never timed.

A long-lived manager keeps one picture of cluster storage; each fact in
it should be stored once.  These tests run a few hundred noop tasks
(three temp outputs each) through a :class:`Manager` and a
:class:`ScriptedWorker` fleet and bound what the manager retains: heap
bytes per finished task, one string per cache name held by few
containers, and one ``unlink`` frame per worker when the workflow ends;
and what the event log retains per event.
"""

import gc
import math
import sys
import time
import tracemalloc

import pytest

from repro.core import control_plane
from repro.core.events import EventLog
from repro.core.files import TempFile
from repro.core.manager import Manager
from repro.core.task import Task, TaskState
from repro.protocol.messages import M
from repro.worker.scripted import ScriptedWorker
from tests.core.test_control_plane import make_control
from tests.reactor_owner import on_reactor

WORKERS = 4
TASKS = 300
OUTPUTS = 3
#: heap bytes a finished noop task with three temp outputs may leave in
#: the manager (≈ 2.11 KB measured on CPython 3.11; ≈ 2.29 KB while a
#: ``Task`` was an object plus an instance dict of every field; ≈ 2.87 KB
#: while each file record had an id string and an instance dict, each
#: tenant kept a set of its names and each task its own copy of ``out0``;
#: ≈ 3.6 KB while a name's size and source had tables of their own, the
#: namer kept a set of the names it issued and each event was an object;
#: ≈ 4.6 KB when each sole holder took a set and each reported name was
#: a decoded copy)
BYTES_PER_TASK = 2_300
#: heap bytes one file record costs: seven slots and the object
#: header, no instance dict (136 B in two blocks, plus a 53 B id
#: string, while a record had a dict and an id of its own).  The bound
#: is under what one more slot would cost, so stray allocations by
#: another thread inside the traced window do not fail it
BYTES_PER_RECORD = 88
#: heap bytes one ``declare_temp()`` may leave in the manager once the
#: plane has it: the record, its name string, its registry entry and
#: its declaration rank (≈ 229 B measured on CPython 3.11; ≈ 331 B with
#: the id string and the instance dict)
BYTES_PER_TEMP = 250
TEMPS = 2_000
#: heap bytes one retained event may cost with no sink attached: a
#: double, a one-byte kind and five references, with the columns'
#: spare room (≈ 53 B measured on CPython 3.11; ≈ 120 B as a frozen
#: ``Event`` holding its own float)
BYTES_PER_EVENT = 60
#: containers ``gc`` finds holding a finished temp's name string: its
#: record, its holder's name set and the event log's cells (four while
#: each tenant's namespace was a set of names, five while a
#: ``file_cached`` event was an object and the namer kept every name it
#: issued).  A dict does not show its ``str`` keys to ``gc``, so the
#: registry's and replica table's indexes are not counted here; the
#: string identity test below covers them
NAME_HOLDERS = 3


def _wait_for(predicate, what, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


@pytest.fixture()
def fleet():
    m = Manager(worker_liveness_timeout=None)
    workers = [ScriptedWorker(m.host, m.port) for _ in range(WORKERS)]
    _wait_for(lambda: len(m.workers) == WORKERS, "registrations")
    yield m
    m.close()
    for w in workers:
        w.close()


def _run(m, n):
    """Submit ``n`` noop tasks and wait for every one; returns them."""
    tasks = []
    for _ in range(n):
        task = Task("noop")
        for j in range(OUTPUTS):
            task.add_output(m.declare_temp(), f"out{j}")
        m.submit(task)
        tasks.append(task)
    for _ in range(n):
        assert m.wait(timeout=30.0) is not None
    assert all(t.state == TaskState.DONE for t in tasks)
    return tasks


def _unlinks(m):
    """Every ``unlink`` the manager queues from now on: (worker, names)."""
    sent = []
    inner = m._tell

    def tell(worker_id, message, payload=None):
        if message["type"] == M.UNLINK:
            sent.append((worker_id, list(message["cache_names"])))
        inner(worker_id, message, payload)

    m._tell = tell
    return sent


def test_a_finished_task_retains_under_its_byte_budget(fleet):
    if sys.gettrace() is not None:
        # a coverage or debugging tracer allocates inside the traced
        # window; the budget is set for the program alone
        pytest.skip("a trace function is installed")
    _run(fleet, 20)  # tables and logs past their first growth
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _run(fleet, TASKS)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / TASKS < BYTES_PER_TASK, retained / TASKS


def test_a_declared_temp_is_a_slotted_record_under_its_byte_budget():
    if sys.gettrace() is not None:
        pytest.skip("a trace function is installed")
    m = Manager(worker_liveness_timeout=None)
    try:
        m.declare_temp()
        on_reactor(m, len, m.registry)  # the plane's tables past their start
        temps = [None] * TEMPS
        records = [None] * TEMPS
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(TEMPS):
                records[i] = TempFile()
            record = tracemalloc.get_traced_memory()[0] - before
            before = tracemalloc.get_traced_memory()[0]
            for i in range(TEMPS):
                temps[i] = m.declare_temp()
            # a round trip: every declare posted above is applied first
            assert on_reactor(m, len, m.registry) == TEMPS + 1
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    finally:
        m.close()
    assert not hasattr(temps[0], "__dict__")
    assert not hasattr(temps[0], "file_id")
    assert record / TEMPS < BYTES_PER_RECORD + 8, record / TEMPS
    assert retained / TEMPS <= BYTES_PER_TEMP, retained / TEMPS


def test_a_sandbox_name_is_stored_once_across_the_planes_tasks():
    _port, control = make_control()
    ref = TempFile()
    ref.cache_name = "temp-ref"
    control.declare(ref)
    tasks = []
    for i in range(3):
        task = Task("noop")
        out = TempFile()
        out.cache_name = f"temp-out-{i}"
        control.declare(out)
        # names built at run time, as a workload's f"out{j}" is
        task.add_input(ref, "".join(["i", "n"]))
        task.add_output(out, "".join(["o", "u", "t", "0"]))
        control.submit(task)
        tasks.append(task)
    assert len({id(t.outputs[0][0]) for t in tasks}) == 1
    assert len({id(t.inputs[0][0]) for t in tasks}) == 1


def test_a_retained_event_costs_a_row_not_an_object():
    log = EventLog()
    log.emit(0.0, "file_cached", worker="W001", file="f", size=1)
    events = 20_000
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(events):
            # a fresh float per event, as the runtimes' clocks give
            log.emit(i * 0.001, "file_cached", worker="W001", file="f", size=1)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(log) == events + 1
    assert retained / events < BYTES_PER_EVENT, retained / events


def test_a_temp_name_is_held_by_few_containers(fleet):
    tasks = _run(fleet, 50)
    gc.collect()
    for task in tasks:
        for _sandbox, f in task.outputs:
            holders = gc.get_referrers(f.cache_name)
            assert len(holders) <= NAME_HOLDERS, [type(h) for h in holders]


def test_a_reported_name_is_stored_as_the_managers_own_string(fleet):
    tasks = _run(fleet, TASKS)
    stored = {name: name for name in fleet.replicas.names()}
    cached = {e.file: e.file for e in fleet.log.events("file_cached")}
    ended = {e.task: e.task for e in fleet.log.events("task_end")}
    for task in tasks:
        assert ended[task.task_id] is task.task_id
        for _sandbox, f in task.outputs:
            assert stored[f.cache_name] is f.cache_name
            assert cached[f.cache_name] is f.cache_name
            assert fleet.registry.own_name(f.cache_name) is f.cache_name


def test_workflow_end_sends_one_unlink_frame_per_worker(fleet):
    tasks = _run(fleet, TASKS)
    workers = sorted(fleet.workers)
    sent = _unlinks(fleet)
    fleet.close()
    assert [w for w, _names in sent] == workers
    declared = [f.cache_name for t in tasks for _s, f in t.outputs]
    unlinked = [name for _w, names in sent for name in names]
    assert sorted(unlinked) == sorted(declared)
    # each frame lists its worker's names in declaration order, and the
    # log says so in the same order, worker by worker
    rank = {name: i for i, name in enumerate(declared)}
    for _w, names in sent:
        assert names == sorted(names, key=rank.__getitem__)
    deleted = [(e.worker, e.file) for e in fleet.log.events("file_deleted")]
    assert deleted == [(w, n) for w, names in sent for n in names]
    assert not fleet.replicas.names()


def test_a_long_unlink_list_is_split_at_the_batch_cap(fleet, monkeypatch):
    _run(fleet, TASKS)
    held = {w: len(fleet.replicas.holdings(w)) for w in fleet.workers}
    monkeypatch.setattr(control_plane, "UNLINK_BATCH", 50)
    sent = _unlinks(fleet)
    fleet.close()
    assert all(len(names) <= 50 for _w, names in sent)
    assert len(sent) == sum(math.ceil(k / 50) for k in held.values())
    deleted = fleet.log.events("file_deleted")
    assert [e.file for e in deleted] == [n for _w, names in sent for n in names]
    # a batch's events share one timestamp
    assert len({e.time for e in deleted}) <= len(sent)
