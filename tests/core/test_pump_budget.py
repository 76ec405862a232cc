"""Pump budgets, counted — never timed.

The pump is meant to run once per reactor sweep, on the reactor thread,
and to spend work only where something changed.  Each test wraps one
function, runs a workload, and bounds how often that function was
entered; none of them reads a clock, so a slow machine cannot fail them
and a regression cannot hide behind a fast one.
"""

import heapq
import threading
import time
from collections import Counter

import pytest

from repro.core import replica_table
from repro.core.control_plane import _JOB_STAGE, ControlPlane
from repro.core.manager import Manager
from repro.core.replica_table import ReplicaTable
from repro.core.scheduler import PlacementIndex, ReadyQueue, Scheduler
from repro.core.task import Task, TaskState
from repro.observe.metrics import Gauge
from repro.sim.cluster import SimCluster
from repro.sim.engine import Simulation
from repro.sim.simmanager import SimManager
from repro.sim.workloads import (
    blast_cluster,
    blast_workflow,
    streaming_genome_workload,
)
from repro.worker.scripted import ScriptedWorker
from tests.reactor_owner import PlaneEntries, holding_reactor, on_reactor


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
    # each round trip is a sweep later: the flag is down once a sweep
    # after the last admission pumped
    _wait_for(
        lambda: not on_reactor(manager, lambda: manager._pump_wanted), "the posted pump"
    )
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


def test_a_burst_posted_behind_a_round_trip_is_admitted_by_one_pump(
    manager, monkeypatch
):
    """2 000 submits posted while a command holds the reactor are
    applied in the sweep that command belongs to and placed by that
    sweep's one pump; the application thread enters the plane not once."""
    entries = PlaneEntries(monkeypatch)
    on_reactor(manager, lambda: None)  # the warm-up sweep's pump, if any
    before = entries.counts["pump"]
    tasks = [Task("noop") for _ in range(2000)]
    with holding_reactor(manager):
        for t in tasks:
            manager.submit(t)
        assert entries.counts["submit"] == 0  # posted, not applied
    _wait_for(lambda: entries.counts["pump"] > before, "the burst's pump")
    assert on_reactor(manager, lambda: len(manager.tasks)) == len(tasks)
    assert entries.counts["pump"] == before + 1
    assert entries.counts["submit"] == len(tasks)
    assert all(t.state == TaskState.READY for t in tasks)
    assert entries.off_owner == []


#: submits in the free-running preloaded phase below, and the pumps it
#: may take: one per hundred submits (≈ 25 measured on a 2-core
#: container; 90–118 over a whole preloaded drain of 64 workers before
#: the application thread posted its plane steps)
PRELOADED_SUBMITS = 20_000
PRELOADED_PUMPS = PRELOADED_SUBMITS // 100


def test_a_free_running_preloaded_phase_pumps_once_per_hundred_submits(manager):
    """The submit half of a preloaded drain, as ``dispatch_storm`` runs
    it: noop tasks with three temp outputs each, into a manager with no
    worker yet and a reactor nobody holds.  Each sweep applies whatever
    was posted since the last and pumps once, so the submits, not the
    pumps, set the pace."""
    pumps = _record_pump_threads(manager)
    tasks = []
    for _ in range(PRELOADED_SUBMITS):
        task = Task("noop")
        for j in range(3):
            task.add_output(manager.declare_temp(), f"out{j}")
        manager.submit(task)
        tasks.append(task)
    _wait_for(
        lambda: not on_reactor(manager, lambda: manager._pump_wanted),
        "the last admission's pump",
    )
    print(f"\n{PRELOADED_SUBMITS} preloaded submits: {len(pumps)} pumps "
          f"(bound {PRELOADED_PUMPS})")
    assert all(t.state == TaskState.READY for t in tasks)
    assert 0 < len(pumps) <= PRELOADED_PUMPS


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
    producers, and is looked at when it arrives (and parked there) and
    when they are done — not on every pump in between."""
    calls = Counter()

    def counting(name):
        inner = getattr(ControlPlane, name)

        def counted(self, task):
            calls[task.task_id] += 1
            return inner(self, task)

        monkeypatch.setattr(ControlPlane, name, counted)

    counting("_recover_lost_inputs")
    counting("_producers_pending")
    cluster = SimCluster()
    cluster.add_workers(200, cores=4)
    m = SimManager(cluster, seed=7)
    run = streaming_genome_workload(
        m, n_jobs=64, fanout=16, mean_interarrival=2.0, seed=7
    )
    assert run.stats.tasks_done == 64 * 17
    merges = [t for t in m.control.tasks.values() if t.category == "merge"]
    assert len(merges) == 64
    assert all(1 <= calls[t.task_id] <= 2 for t in merges)
    # a producer's inputs are there from the start: looked at on arrival
    assert all(
        calls[t.task_id] == 1
        for t in m.control.tasks.values()
        if t.category != "merge"
    )


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


# -- placement costs what changed -----------------------------------------


def test_blast_pair_places_without_probing_what_cannot_be_placed(monkeypatch):
    """Fig. 9's shape, cold then hot on 100 workers.  A placement index
    lives across pumps and is updated per changed worker, and a pass
    ends once the rest of it can only fail.  Before, for 1 120
    placements in 1 948 pumps: 66 327 ``choose_worker_indexed`` calls,
    65 207 ``ReadyQueue.restore`` calls and 115 720 ``_view_of`` calls
    (one index rebuilt from every worker on 1 147 passes)."""
    counts = Counter()
    _counting(monkeypatch, counts, Scheduler, "choose_worker_indexed")
    _counting(monkeypatch, counts, ReadyQueue, "restore")
    _counting(monkeypatch, counts, ControlPlane, "_view_of")
    _counting(monkeypatch, counts, ControlPlane, "_dispatch")
    _counting(monkeypatch, counts, ControlPlane, "pump")
    cluster = blast_cluster(100)
    for _ in range(2):
        assert blast_workflow(cluster, n_tasks=560, seed=7).tasks_done == 560
    placed, pumps = counts["_dispatch"], counts["pump"]
    assert placed == 1120
    assert counts["choose_worker_indexed"] <= placed + pumps, (
        f"{counts['choose_worker_indexed']} placement probes (66 327 before)"
    )
    assert counts["restore"] <= pumps, f"{counts['restore']} restores (65 207 before)"
    assert counts["_view_of"] <= 3 * placed, (
        f"{counts['_view_of']} worker views (115 720 before)"
    )


def test_a_fan_in_submitted_before_its_producers_is_not_probed(monkeypatch):
    """64 jobs of eight producers and one merge, all submitted up front
    to three one-core workers.  A merge whose producers are queued is
    parked as it arrives; before, it stayed unvetted until a pass
    reached it, so every pass failed a whole placement window first:
    41 113 ``choose_worker_indexed`` calls for 576 tasks."""
    counts = Counter()
    _counting(monkeypatch, counts, Scheduler, "choose_worker_indexed")
    cluster = SimCluster()
    cluster.add_workers(3, cores=1)
    m = SimManager(cluster, seed=7)
    for j in range(64):
        merge = Task(f"merge {j}")
        for i in range(8):
            part = m.declare_temp(size=1000)
            m.submit(Task(f"part {j}.{i}").add_output(part, "part"), duration=1.0)
            merge.add_input(part, f"part{i}")
        m.submit(merge, duration=1.0)
    assert m.run().tasks_done == 576
    assert counts["choose_worker_indexed"] <= 3 * 576, (
        f"{counts['choose_worker_indexed']} placement probes (41 113 before)"
    )


def _blast_placement_walks(monkeypatch, workers):
    """BLAST cold, six tasks per worker: heap entries ``best_fallback``
    popped, and holders locality scoring walked, per placement."""
    counts = Counter()
    inside = set()

    def within(name, inner):
        def wrapper(self, *args):
            inside.add(name)
            try:
                return inner(self, *args)
            finally:
                inside.discard(name)

        return wrapper

    pop = heapq.heappop

    def counted_pop(heap):
        counts["pops"] += "fallback" in inside
        return pop(heap)

    class Holders(set):
        """A replica table's holder set that counts the entries walked."""

        def __iter__(self):
            if "scores" in inside:
                counts["walked"] += len(self)
            return super().__iter__()

    monkeypatch.setattr(heapq, "heappop", counted_pop)
    monkeypatch.setattr(replica_table, "set", Holders, raising=False)
    monkeypatch.setattr(
        PlacementIndex, "best_fallback",
        within("fallback", PlacementIndex.best_fallback),
    )
    monkeypatch.setattr(
        ReplicaTable, "locality_scores_among",
        within("scores", ReplicaTable.locality_scores_among),
    )
    _counting(monkeypatch, counts, ControlPlane, "_dispatch")
    stats = blast_workflow(blast_cluster(workers), n_tasks=6 * workers, seed=7)
    assert stats.tasks_done == counts["_dispatch"] == 6 * workers
    monkeypatch.undo()
    return counts["pops"] / counts["_dispatch"], counts["walked"] / counts["_dispatch"]


def test_a_placement_pays_for_the_workers_that_changed_not_the_fleet(monkeypatch):
    """BLAST cold at 100 and 400 workers.  A worker that cannot take a
    request leaves the fallback heap until it changes, so a full cluster
    is walked once, not once per refill; and the shared inputs, once
    every worker holds them, are not walked by locality scoring."""
    pops, walked = {}, {}
    for workers in (100, 400):
        pops[workers], walked[workers] = _blast_placement_walks(monkeypatch, workers)
    assert pops[400] <= 1.5 * pops[100], (
        f"{pops[100]:.1f} -> {pops[400]:.1f} fallback heap pops per placement "
        "at 100 -> 400 workers (34.7 -> 134.7 when full workers were "
        "walked past and restored on every probe)"
    )
    assert walked[400] <= 250, (
        f"{walked[400]:.0f} holders walked by locality scoring per placement "
        "at 400 workers (509 when inputs every worker holds were walked, "
        "115 at 100; what is left still grows with the fleet while the "
        "shared inputs spread)"
    )


def test_stream_views_follow_placements_not_the_fleet(monkeypatch):
    """640 streaming jobs × 17 tasks on 200 workers: 10 880 placements
    asked for 266 880 worker views when every pass rebuilt its index."""
    counts = Counter()
    _counting(monkeypatch, counts, ControlPlane, "_view_of")
    cluster = SimCluster()
    cluster.add_workers(200, cores=4)
    run = streaming_genome_workload(
        SimManager(cluster, seed=7),
        n_jobs=640, fanout=16, mean_interarrival=2.0, seed=7,
    )
    assert run.stats.tasks_done == 640 * 17
    assert counts["_view_of"] <= 30_000, (
        f"{counts['_view_of']} worker views (266 880 before)"
    )


# -- a completion is one message and writes no gauge ----------------------


def test_a_completion_is_one_message(manager):
    """400 noop tasks with three temp outputs each on four scripted
    workers: the manager reads one message per task — the task_done,
    which lists the outputs it left — and whatever the workers say
    unasked (1 600 messages before, when every output was a
    cache_update of its own ahead of the report)."""
    workers = [ScriptedWorker(manager.host, manager.port) for _ in range(4)]
    tasks = []
    try:
        _wait_for(lambda: len(manager.workers) == len(workers), "the fleet")
        for _ in range(400):
            task = Task("noop")
            for j in range(3):
                task.add_output(manager.declare_temp(), f"out{j}")
            tasks.append(task)
            manager.submit(task)
        finished = manager.run_until_done(timeout=60.0)
        # each output was registered where it was made
        registered = on_reactor(manager, lambda: all(
            manager.control.replicas.locate(f.cache_name) == {t.worker_id}
            for t in tasks
            for _, f in t.outputs
        ))
    finally:
        for w in workers:
            w.close()
    assert len(finished) == len(tasks)
    assert all(t.state == TaskState.DONE for t in tasks) and registered
    messages = manager.metrics.snapshot()["net.messages_in"]["value"]
    # registrations are no worker message; scripted workers send no
    # heartbeat: one message per worker is slack
    assert messages <= len(tasks) + len(workers), (
        f"{messages:.0f} messages in for {len(tasks)} tasks (1 600 before)"
    )


def test_the_blast_pair_writes_no_gauge(monkeypatch):
    """Fig. 9's shape, cold then hot on 100 workers: every gauge the
    plane shows is a count some table keeps with its peak, read when a
    snapshot is taken — none is written while the run goes (33 677
    locked ``Gauge.set`` calls before: four per tenant-ledger change,
    two per transfer begin and end, two per pump)."""
    counts = Counter()
    _counting(monkeypatch, counts, Gauge, "set")
    _counting(monkeypatch, counts, Gauge, "inc")
    cluster = blast_cluster(100)
    for _ in range(2):
        assert blast_workflow(cluster, n_tasks=560, seed=7).tasks_done == 560
    assert not counts, f"{dict(counts)} gauge writes (33 677 sets before)"
