"""Pump budgets, counted — never timed.

The pump is meant to run once per reactor sweep, on the reactor thread,
and to spend work only where something changed.  Each test wraps one
function, runs a workload, and bounds how often that function was
entered; none of them reads a clock, so a slow machine cannot fail them
and a regression cannot hide behind a fast one.
"""

import threading
import time
from collections import Counter

import pytest

from repro.core.control_plane import _JOB_STAGE, ControlPlane
from repro.core.manager import Manager
from repro.core.scheduler import PlacementIndex, Scheduler
from repro.core.task import Task, TaskState
from repro.sim.cluster import SimCluster
from repro.sim.engine import Simulation
from repro.sim.simmanager import SimManager
from repro.sim.workloads import (
    blast_cluster,
    blast_workflow,
    streaming_genome_workload,
)
from repro.worker.scripted import ScriptedWorker


@pytest.fixture()
def manager():
    m = Manager()
    yield m
    m.close()


def _record_pump_threads(manager):
    """Every entry into ``control.pump`` appends the calling thread."""
    threads = []
    inner = manager.control.pump

    def pump():
        threads.append(threading.current_thread())
        inner()

    manager.control.pump = pump
    return threads


def _wait_for(predicate, what, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


def test_library_mode_submits_never_pump_on_the_caller(manager):
    pumps = _record_pump_threads(manager)
    tasks = [Task("noop") for _ in range(2000)]
    for t in tasks:
        manager.submit(t)
    _wait_for(lambda: not manager._pump_wanted, "the posted pump")
    me = threading.current_thread()
    assert me not in pumps
    assert set(pumps) == {manager.reactor.thread}
    # one pump per sweep, however many submits the sweep absorbed
    # (about 5 % of submits in practice; one per submit before)
    assert 0 < len(pumps) < 1000
    assert all(t.state == TaskState.READY for t in tasks)
    # nothing was lost by not pumping inline: a worker drains them all
    worker = ScriptedWorker(manager.host, manager.port)
    try:
        finished = manager.run_until_done(timeout=60.0)
    finally:
        worker.close()
    assert len(finished) == len(tasks)
    assert all(t.state == TaskState.DONE for t in tasks)
    assert me not in pumps


def test_off_reactor_requests_are_served_by_the_reactor(manager):
    pumps = _record_pump_threads(manager)

    def served(action, what):
        before = len(pumps)
        action()
        _wait_for(lambda: len(pumps) > before, f"a pump after {what}")
        _wait_for(lambda: not manager._pump_wanted, "the flag to clear")

    queued = Task("never placed: no worker yet")
    manager.submit(queued)
    served(lambda: manager.cancel(queued), "cancel")
    assert queued.state == TaskState.CANCELLED

    worker = ScriptedWorker(manager.host, manager.port)
    try:
        _wait_for(lambda: len(manager.workers) == 1, "the worker to register")
        (wid,) = manager.workers
        served(lambda: manager.drain_worker(wid), "drain_worker")
        # the RuntimePort timer a requeue/transfer backoff arms
        served(lambda: manager.schedule_pump(0.01), "schedule_pump")
    finally:
        worker.close()
    assert set(pumps) == {manager.reactor.thread}


def test_full_cluster_walks_the_load_heap_once_per_pass(monkeypatch):
    """560 BLAST tasks on 100×4 cores: the cluster is full for most of
    the run, and each pass may discover that once — not once per queued
    task (66 327 fallback walks before, 65 207 of them fruitless)."""
    counts = Counter()
    best_fallback = PlacementIndex.best_fallback
    pump = ControlPlane.pump
    dispatch = ControlPlane._dispatch

    def counting(name, inner):
        def wrapper(self, *args):
            counts[name] += 1
            return inner(self, *args)

        return wrapper

    monkeypatch.setattr(
        PlacementIndex, "best_fallback", counting("fallback", best_fallback)
    )
    monkeypatch.setattr(ControlPlane, "pump", counting("pump", pump))
    monkeypatch.setattr(ControlPlane, "_dispatch", counting("dispatch", dispatch))
    stats = blast_workflow(blast_cluster(100), n_tasks=560, seed=7)
    assert stats.tasks_done == 560 and counts["dispatch"] == 560
    assert counts["fallback"] <= counts["dispatch"] + counts["pump"]


def test_fan_in_tasks_are_examined_when_their_inputs_change(monkeypatch):
    """64 streaming jobs × fan-out 16: a merge task waits for sixteen
    producers, and is looked at when it arrives and when they are done
    — not on every pump in between."""
    calls = Counter()
    inner = ControlPlane._recover_lost_inputs

    def counted(self, task):
        calls[task.task_id] += 1
        return inner(self, task)

    monkeypatch.setattr(ControlPlane, "_recover_lost_inputs", counted)
    cluster = SimCluster()
    cluster.add_workers(200, cores=4)
    m = SimManager(cluster, seed=7)
    run = streaming_genome_workload(
        m, n_jobs=64, fanout=16, mean_interarrival=2.0, seed=7
    )
    assert run.stats.tasks_done == 64 * 17
    merges = [t for t in m.control.tasks.values() if t.category == "merge"]
    assert len(merges) == 64
    assert set(calls) <= {t.task_id for t in merges}
    assert all(1 <= calls[t.task_id] <= 2 for t in merges)


# -- an event costs what it changed ---------------------------------------


def _counting(monkeypatch, counts, cls, name, key=None):
    inner = getattr(cls, name)

    def wrapper(self, *args, **kwargs):
        counts[key(self, *args) if key else name] += 1
        return inner(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)


def test_blast_on_100_workers_pays_per_event_not_per_fleet(monkeypatch):
    """Fig. 9's shape, cold then hot, 2 × 560 tasks.  Before: every
    network change re-pushed one event per active flow (258 951 events),
    every pump re-planned every unstarted mini-task job (51 400 for 200
    jobs) and every task deferred behind the manager's 100 slots
    (101 440 plans, 90 per task)."""
    counts = Counter()
    _counting(monkeypatch, counts, Simulation, "schedule")
    _counting(monkeypatch, counts, Scheduler, "plan_transfers")
    _counting(
        monkeypatch, counts, ControlPlane, "_advance",
        key=lambda self, stage: ("advance", stage.order[0]),
    )
    cluster = blast_cluster(100)
    cold = blast_workflow(cluster, n_tasks=560, seed=7)
    hot = blast_workflow(cluster, n_tasks=560, seed=7)
    assert cold.tasks_done == hot.tasks_done == 560
    jobs = len(cold.log.events("stage_start"))
    assert jobs == 200 and not hot.log.events("stage_start")
    assert counts["schedule"] <= 10_000
    assert counts["plan_transfers"] <= 101_440 // 3
    assert counts[("advance", _JOB_STAGE)] <= 10 * jobs


def test_plans_per_task_do_not_grow_with_the_fleet(monkeypatch):
    """The same workload per worker (six BLAST tasks each, cold then
    hot) on 50 and on 200 workers: a task is planned when it is placed
    and when something it waits for happens, however many others wait
    (33 and 191 plans per task before)."""
    counts = Counter()
    _counting(monkeypatch, counts, Scheduler, "plan_transfers")
    per_task = {}
    for workers in (50, 200):
        counts.clear()
        cluster = blast_cluster(workers)
        for _ in range(2):
            assert blast_workflow(cluster, n_tasks=6 * workers, seed=7).tasks_done
        per_task[workers] = counts["plan_transfers"] / (12 * workers)
    assert per_task[200] <= 1.5 * per_task[50]
    assert per_task[200] < 8
