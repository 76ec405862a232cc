"""Elastic-cluster scenarios for the simulated runtime.

Scripted membership schedules — workers joining mid-run, workers
gracefully draining, an autoscaler growing and shrinking the fleet
under a continuous streaming workload — must be invisible to the
workflow: byte-identical outputs vs a static cluster, zero sole-holder
cache objects lost on a drain, and bit-for-bit determinism per seed.
The chaos variants race the drain protocol against crashes (a crash
*during* a drain, a join crashed moments after it materializes) and
still demand convergence.
"""

from repro.core.task import Task, TaskState
from repro.faults import FaultPlan, SimFaultInjector
from repro.sim.cluster import SimCluster
from repro.sim.simmanager import SimManager
from repro.sim.workloads import (
    Autoscaler,
    SimAutoscaleDriver,
    streaming_genome_workload,
)

MB = 1_000_000


def _build(n_workers, seed=7, nonce="elastic-test"):
    cluster = SimCluster()
    for i in range(n_workers):
        cluster.add_worker(cores=4, worker_id=f"w{i}")
    # run_nonce pinned so cache names (and thus outputs) are comparable
    # across fleets and runs
    m = SimManager(cluster, seed=seed, run_nonce=nonce, max_task_retries=10)
    return m


def _two_stage(m, n=12, duration=2.0):
    """The chaos suite's produce/consume DAG: peer traffic guaranteed."""
    shared = m.declare_dataset("shared", MB)
    temps, tasks = [], []
    for i in range(n):
        temp = m.declare_temp()
        t = Task(f"produce{i}").add_input(shared, "d").add_output(temp, "out")
        m.submit(t, duration=duration, output_sizes={"out": MB})
        temps.append(temp)
        tasks.append(t)
    for i in range(n):
        t = (
            Task(f"consume{i}")
            .add_input(temps[i], "a")
            .add_input(temps[(i + 5) % n], "b")
        )
        m.submit(t, duration=duration)
        tasks.append(t)
    return tasks


def _cached_at(events, stop_index):
    """Per-worker cached sets replayed from the log prefix [0, stop)."""
    held: dict[str, set] = {}
    for e in events[:stop_index]:
        if e.kind == "file_cached":
            held.setdefault(e.worker, set()).add(e.file)
        elif e.kind == "file_deleted":
            held.get(e.worker, set()).discard(e.file)
        elif e.kind == "worker_leave":
            held.pop(e.worker, None)
    return held


def _normalized(events):
    """Events with run-scoped identities aliased by appearance order."""
    files, tasks = {}, {}
    out = []
    for e in events:
        file = e.file
        if file is not None:
            file = files.setdefault(file, f"f{len(files)}")
        task = e.task
        if task is not None:
            task = tasks.setdefault(task, f"t{len(tasks)}")
        category = e.category
        if category in files:
            category = files[category]
        out.append((e.time, e.kind, e.worker, task, file, e.size, category))
    return out


# ---------------------------------------------------------------------------
# graceful drain
# ---------------------------------------------------------------------------


def test_drain_migrates_then_departs():
    m = _build(3)
    tasks = _two_stage(m)
    SimFaultInjector(FaultPlan(seed=7).drain("w0", at=0.5), m)
    stats = m.run()
    assert all(t.state == TaskState.DONE for t in tasks)

    events = stats.log.events()
    kinds = [(e.kind, e.worker) for e in events if e.worker == "w0"]
    order = [k for k, _ in kinds if k in ("worker_drain", "worker_drained", "worker_leave")]
    # the full protocol, strictly ordered: announce, migrate, release
    assert order == ["worker_drain", "worker_drained", "worker_leave"]
    drained = stats.log.events("worker_drained")[0]
    assert drained.category is None, "no sole-holder object may be stranded"
    assert drained.size > 0, "the drain must have migrated bytes"
    # the drain forced no recovery work: this is the point of draining
    assert m.metrics.counter("recovery.regenerations").value == 0
    assert m.metrics.counter("elastic.drain_objects_stranded").value == 0
    assert not m.control.draining
    assert events[-1].kind == "workflow_done"


def test_drain_loses_no_sole_holder_objects():
    m = _build(3)
    tasks = _two_stage(m)
    SimFaultInjector(FaultPlan(seed=7).drain("w0", at=0.5), m)
    stats = m.run()
    assert all(t.state == TaskState.DONE for t in tasks)

    events = stats.log.events()
    leave_index = next(
        i for i, e in enumerate(events)
        if e.kind == "worker_leave" and e.worker == "w0"
    )
    held = _cached_at(events, leave_index)
    survivors = set().union(*(held.get(w, set()) for w in held if w != "w0"))
    # every object the departing worker still held at release time was
    # already backed on a survivor — zero replicas rode out with it
    orphaned = held.get("w0", set()) - survivors
    assert not orphaned, f"sole-holder objects lost to the drain: {orphaned}"


def test_join_mid_run_picks_up_work():
    m = _build(2)
    tasks = _two_stage(m, n=16)
    SimFaultInjector(
        FaultPlan(seed=7).join("w9", at=2.5, cores=4), m
    )
    stats = m.run()
    assert all(t.state == TaskState.DONE for t in tasks)
    joins = [e for e in stats.log.events("worker_join") if e.worker == "w9"]
    assert joins and joins[0].time >= 2.5
    # the late worker was actually scheduled onto, not just registered
    assert any(
        e.kind == "task_start" and e.worker == "w9" for e in stats.log.events()
    )


# ---------------------------------------------------------------------------
# byte-identical outputs vs a static cluster
# ---------------------------------------------------------------------------


def _stream(m, plan=None, seed=11):
    if plan is not None:
        SimFaultInjector(plan, m)
    return streaming_genome_workload(
        m, n_jobs=8, fanout=4, mean_interarrival=6.0, seed=seed
    )


def test_elastic_outputs_match_static():
    static = _stream(_build(3, seed=11))
    plan = (
        FaultPlan(seed=11)
        .join("w9", at=10.0)
        .drain("w0", at=25.0)
        .drain("w1", at=45.0)
    )
    elastic = _stream(_build(3, seed=11), plan=plan)
    assert all(t > 0 for t in elastic.job_completions)
    assert elastic.outputs == static.outputs


def test_autoscale_streaming_matches_static():
    static = _stream(_build(2, seed=11))

    m = _build(2, seed=11)
    driver = SimAutoscaleDriver(
        m, Autoscaler(min_workers=1, max_workers=8), interval=5.0
    )
    scaled = _stream(m)
    assert all(t > 0 for t in scaled.job_completions)
    assert driver.joins > 0, "streaming pressure must have grown the fleet"
    assert driver.drains > 0, "the idle tail must have shrunk it"
    ups = [e for e in scaled.stats.log.events("autoscale") if e.category == "up"]
    downs = [e for e in scaled.stats.log.events("autoscale") if e.category == "down"]
    assert sum(e.size for e in ups) == driver.joins
    assert sum(e.size for e in downs) == driver.drains
    # scale-downs were graceful: drains completed, nothing regenerated
    assert m.metrics.counter("elastic.drains_completed").value == driver.drains
    assert m.metrics.counter("recovery.regenerations").value == 0
    assert scaled.outputs == static.outputs


def test_a_kill_regenerates_what_a_drain_migrates():
    """The same workers leave the same stream at the same instants,
    announced or not: a drain pays up front in bytes re-replicated, a
    crash afterwards in producers re-run — and the outputs agree."""
    departures = [("w0", 20.0), ("w1", 35.0)]
    runs = {}
    for kind in ("drain", "crash"):
        plan = FaultPlan(seed=11)
        for worker, at in departures:
            getattr(plan, kind)(worker, at=at)
        m = _build(4, seed=11)
        runs[kind] = (m, _stream(m, plan=plan))

    def count(kind, name):
        return m_of[kind].metrics.counter(name).value

    m_of = {kind: m for kind, (m, _result) in runs.items()}
    assert count("drain", "elastic.drain_bytes_replicated") > 0
    assert count("crash", "elastic.drain_bytes_replicated") == 0
    assert count("crash", "recovery.regenerations") > count(
        "drain", "recovery.regenerations"
    )
    assert count("crash", "recovery.requeues") >= count("drain", "recovery.requeues")
    assert runs["crash"][1].outputs == runs["drain"][1].outputs


# ---------------------------------------------------------------------------
# per-seed determinism
# ---------------------------------------------------------------------------


def _elastic_run(seed):
    plan = (
        FaultPlan(seed=seed)
        .join("w9", at=8.0)
        .drain("w0", at=20.0)
        .crash("w1", at=30.0)
    )
    m = _build(3, seed=seed)
    result = _stream(m, plan=plan, seed=seed)
    return result.stats


def test_elastic_run_is_deterministic_for_a_seed():
    first = _elastic_run(13)
    second = _elastic_run(13)
    assert _normalized(first.log.events()) == _normalized(second.log.events())
    other = _elastic_run(14)
    assert _normalized(other.log.events()) != _normalized(first.log.events())


# ---------------------------------------------------------------------------
# chaos variants: membership churn racing failures
# ---------------------------------------------------------------------------


def test_crash_during_drain_still_converges():
    clean = _build(4, seed=7)
    clean_tasks = _two_stage(clean)
    clean.run()

    m = _build(4, seed=7)
    tasks = _two_stage(m)
    # the crash lands while the drain's migrations are in flight: the
    # graceful path must collapse into the crash path without wedging
    plan = FaultPlan(seed=7).drain("w0", at=0.5).crash("w0", at=1.0)
    SimFaultInjector(plan, m)
    stats = m.run()
    assert all(t.state == TaskState.DONE for t in tasks)
    assert all(t.state == TaskState.DONE for t in clean_tasks)

    events = stats.log.events()
    assert stats.log.events("worker_drain"), "the drain must have started"
    assert any(
        e.kind == "worker_leave" and e.worker == "w0" for e in events
    )
    assert not m.control.draining, "the crash must clear the draining set"
    assert events[-1].kind == "workflow_done"
    # identical results despite the mid-drain crash
    done = sorted(t.task_id for t in tasks if t.state == TaskState.DONE)
    clean_done = sorted(t.task_id for t in clean_tasks)
    assert len(done) == len(clean_done)


def test_join_then_immediate_crash_converges():
    m = _build(2, seed=7)
    tasks = _two_stage(m)
    plan = FaultPlan(seed=7).join("w9", at=2.0).crash("w9", at=3.0)
    SimFaultInjector(plan, m)
    stats = m.run()
    assert all(t.state == TaskState.DONE for t in tasks)
    events = stats.log.events()
    assert any(e.kind == "worker_join" and e.worker == "w9" for e in events)
    assert any(e.kind == "worker_leave" and e.worker == "w9" for e in events)
    assert events[-1].kind == "workflow_done"


def test_streaming_autoscale_under_hostile_plan():
    static = _stream(_build(4, seed=11))

    m = _build(4, seed=11)
    SimAutoscaleDriver(m, Autoscaler(min_workers=2, max_workers=8), interval=5.0)
    plan = (
        FaultPlan(seed=11)
        .crash("w0", at=15.0)
        .drain("w1", at=25.0)
        .fail_transfers("any", 0.05)
    )
    hostile = _stream(m, plan=plan)
    assert all(t > 0 for t in hostile.job_completions)

    events = hostile.stats.log.events()
    # recovery events pair up: the crash has a departure, every drain
    # ordered either completed or was overtaken by a crash of the same
    # worker — none left dangling at the end of the log
    crashes = [e for e in events if e.kind == "fault_injected" and e.category == "crash"]
    for e in crashes:
        assert any(
            r.kind == "worker_leave" and r.worker == e.worker and r.time >= e.time
            for r in events
        )
    started = [e.worker for e in hostile.stats.log.events("worker_drain")]
    for worker in started:
        assert any(
            e.kind == "worker_leave" and e.worker == worker for e in events
        )
    assert not m.control.draining
    # and through all of it, outputs byte-identical to the calm run
    assert hostile.outputs == static.outputs
