"""A library owns its allocation and its calls share it (paper §3.4, Fig. 8).

The policy lives in ``ControlPlane`` alone, so both runtimes must show
the same thing from the shared event log: a 1-core library with
``function_slots = k`` runs ``k`` calls at once on a worker whose pool
holds the library's core and nothing else, and the slot ledger
(``_lib_load``) equals the calls placed per (worker, library) whatever
happens to them — completion, cancellation, a lost worker.
"""

import collections

from repro.core.library import FunctionCall
from repro.core.resources import Resources
from repro.core.task import TaskState
from repro.sim.cluster import SimCluster
from repro.sim.simmanager import SimManager
from tests.integration.conftest import Cluster
from tests.reactor_owner import on_reactor

SLOTS = 3  # more slots than the worker has free cores: slots, not cores, gate
CALLS = 2 * SLOTS
LIB = "naps"


def _profile(control, observed):
    """What the shared log and tables say about one serverless run."""
    running = peak = 0
    spans = sorted(
        (e.time, e.kind == "task_start")
        for kind in ("task_start", "task_end")
        for e in control.log.events(kind)
        if e.category == "function_call"
    )
    for _time, started in spans:
        running += 1 if started else -1
        peak = max(peak, running)
    return {
        "calls": sum(1 for _t, started in spans if started),
        "peak_concurrent_calls": peak,
        "instances": sum(
            1 for e in control.log.events("task_start") if e.category == "library"
        ),
        # sampled while every slot was busy
        "pool_cores_with_full_slots": observed["cores"],
        "pool_holders_with_full_slots": observed["holders"],
        "slots_taken_when_full": observed["load"],
        # and after the run
        "slot_ledger_after": dict(control._lib_load),
        "call_share_of_allocation": observed["share"],
    }


def _observe(control, worker_id, call):
    pool = control.workers[worker_id].pool
    return {
        "cores": pool.allocated.cores,
        "holders": sorted(pool.holders()),
        "load": control._lib_load[(worker_id, LIB)],
        "share": call.resources,
    }


def _real_run(tmp_path):
    def nap(seconds):
        import time

        time.sleep(seconds)
        return seconds

    c = Cluster(tmp_path, n_workers=1, cores=2)
    try:
        m = c.manager
        m.create_library(LIB, [nap], Resources(cores=1), function_slots=SLOTS)
        m.install_library(LIB)
        calls = [FunctionCall(LIB, "nap", 0.6) for _ in range(CALLS)]
        for fc in calls:
            m.submit(fc)
        c.events.wait_for(
            lambda: sum(fc.state == TaskState.RUNNING for fc in calls) == SLOTS,
            describe="every slot busy",
        )
        (wid,) = on_reactor(m, lambda: list(m.control.workers))
        observed = on_reactor(m, _observe, m.control, wid, calls[0])
        m.run_until_done(timeout=120)
        assert all(fc.state == TaskState.DONE for fc in calls)
        return on_reactor(m, _profile, m.control, observed)
    finally:
        c.stop()


def _sim_run():
    cluster = SimCluster()
    cluster.add_worker(cores=2, worker_id="w")
    m = SimManager(cluster)
    m.create_library(LIB, resources=Resources(cores=1), startup_time=1.0, slots=SLOTS)
    m.install_library(LIB)
    calls = [FunctionCall(LIB, "nap", 0.6) for _ in range(CALLS)]
    for fc in calls:
        m.submit(fc, duration=0.6)
    observed = {}
    m.sim.schedule_at(
        1.3, lambda: observed.update(_observe(m.control, "w", calls[0]))
    )
    m.run(finalize=False)
    assert all(fc.state == TaskState.DONE for fc in calls)
    return _profile(m.control, observed)


def test_slots_not_cores_bound_calls_identically_in_both_runtimes(tmp_path):
    real, sim = _real_run(tmp_path), _sim_run()
    assert real == sim
    assert real == {
        "calls": CALLS,
        "peak_concurrent_calls": SLOTS,
        "instances": 1,
        # the library's one core is the whole charge for three calls
        "pool_cores_with_full_slots": 1,
        "pool_holders_with_full_slots": [f"lib:{LIB}"],
        "slots_taken_when_full": SLOTS,
        "slot_ledger_after": {},
        "call_share_of_allocation": Resources(cores=1 / SLOTS),
    }


def _ledger_is_exact(control):
    placed = collections.Counter(
        (t.worker_id, t.library_name)
        for t in list(control._dispatched.values()) + list(control._running.values())
        if isinstance(t, FunctionCall)
    )
    assert dict(control._lib_load) == dict(placed)
    for (wid, lib), load in placed.items():
        assert load <= control.libraries[lib].slots
    return placed


def test_slot_ledger_equals_placed_calls_through_crash_cancel_requeue():
    cluster = SimCluster()
    cluster.add_worker(cores=2, worker_id="w1")
    cluster.add_worker(cores=2, worker_id="w2")
    m = SimManager(cluster)
    m.create_library(LIB, resources=Resources(cores=1), startup_time=1.0, slots=2)
    m.install_library(LIB)
    calls = [FunctionCall(LIB, "nap", i) for i in range(10)]
    for fc in calls:
        m.submit(fc, duration=4.0)
    seen = []

    def probe():
        seen.append(sum(_ledger_is_exact(m.control).values()))

    def cancel_one_running():
        victim = next(fc for fc in calls if fc.state == TaskState.RUNNING)
        assert m.cancel(victim)
        probe()

    for t in (0.5, 2.0, 3.5, 6.5, 8.0, 12.0, 30.0):
        m.sim.schedule_at(t, probe)
    m.sim.schedule_at(3.0, cancel_one_running)
    cluster.remove_worker("w1", at=6.0)  # two running calls requeue onto w2
    m.run(finalize=False)

    # not ready yet, both instances full, one cancelled, refilled, w1 lost
    assert seen[:5] == [0, 4, 3, 4, 2] and max(seen) == 4
    assert m.control._lib_load == {}
    assert sum(fc.state == TaskState.DONE for fc in calls) == 9
    assert sum(fc.state == TaskState.CANCELLED for fc in calls) == 1
    assert any(fc.retries_used for fc in calls)
    # with w1 gone every later call ran in w2's two slots, and its pool
    # never held more than the library's core
    assert m.control.workers["w2"].pool.allocated.cores == 1
