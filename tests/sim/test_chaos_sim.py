"""Chaos soak for the simulated runtime.

A hostile :class:`FaultPlan` — half the cluster killed, a throttled
link, and probabilistic transfer failure/corruption — is driven against
a two-stage DAG.  The workflow must still complete, every injected
fault must be answered by a recovery in the transaction log, and the
whole run must be bit-for-bit deterministic for a fixed seed.
"""

from repro.core.task import Task, TaskState
from repro.faults import FaultPlan, SimFaultInjector
from repro.sim.cluster import SimCluster
from repro.sim.simmanager import SimManager

MB = 1_000_000
N_WORKERS = 6
N_STAGE = 12


def _hostile_plan(seed):
    return (
        FaultPlan(seed=seed)
        .crash("w0", at=2.0)          # timed abrupt departure
        .crash("w1", after_tasks=2)   # dies mid-way through its 2nd task
        .disconnect("w2", at=3.0)     # control connection severed
        .degrade_link("w3", at=1.0, factor=0.25)
        .fail_transfers("any", 0.08)
        .corrupt_transfers("peer", 0.10)
    )


def _run_chaos(seed, plan=None):
    """Build the cluster + DAG, inject the plan, run to completion."""
    cluster = SimCluster()
    for i in range(N_WORKERS):
        cluster.add_worker(cores=4, worker_id=f"w{i}")
    m = SimManager(cluster, seed=seed, max_task_retries=10)
    if plan is not None:
        SimFaultInjector(plan, m)
    shared = m.declare_dataset("shared", MB)
    temps, tasks = [], []
    for i in range(N_STAGE):
        temp = m.declare_temp()
        t = Task(f"produce{i}").add_input(shared, "d").add_output(temp, "out")
        m.submit(t, duration=1.0, output_sizes={"out": MB})
        temps.append(temp)
        tasks.append(t)
    for i in range(N_STAGE):
        # each consumer joins two intermediates, forcing peer traffic
        t = (
            Task(f"consume{i}")
            .add_input(temps[i], "a")
            .add_input(temps[(i + 5) % N_STAGE], "b")
        )
        m.submit(t, duration=1.0)
        tasks.append(t)
    stats = m.run()
    return m, stats, tasks


def test_chaos_soak_completes_and_recovers():
    plan = _hostile_plan(42)
    m, stats, tasks = _run_chaos(42, plan)
    assert all(t.state == TaskState.DONE for t in tasks)

    events = stats.log.events()
    faults = stats.log.events("fault_injected")
    by_category = {}
    for e in faults:
        by_category.setdefault(e.category, []).append(e)

    # every scheduled departure fired: 3 of 6 workers (>= 20%) died
    killed = {e.worker for e in by_category.get("crash", [])} | {
        e.worker for e in by_category.get("disconnect", [])
    }
    assert killed == {"w0", "w1", "w2"}
    assert [e.worker for e in by_category["link_degrade"]] == ["w3"]
    # probabilistic faults fired too (seed 42 is known-hostile)
    assert by_category.get("transfer_fail") or by_category.get("transfer_corrupt")

    # pairing: every fault is answered in the same log
    for e in faults:
        if e.category in ("crash", "disconnect"):
            assert any(
                r.kind == "worker_leave" and r.worker == e.worker
                and r.time >= e.time
                for r in events
            ), f"no departure recorded for {e}"
        elif e.category in ("transfer_fail", "transfer_corrupt"):
            assert any(
                r.kind == "transfer_failed" and r.file == e.file
                and r.worker == e.worker and r.time >= e.time
                for r in events
            ), f"no failure accounting for {e}"

    # recovery machinery engaged and closed the loop
    assert m.metrics.counter("faults.injected").value == len(faults)
    assert stats.log.events("task_requeued")
    assert m.metrics.counter("transfers.failed").value >= len(
        by_category.get("transfer_fail", [])
    )
    # losing workers mid-DAG forces lineage regeneration or refetch;
    # either way the terminal state is every task DONE with no survivor
    # of the plan left blocked
    assert events[-1].kind == "workflow_done"


def test_chaos_makespan_costs_more_than_fault_free():
    _, clean, tasks = _run_chaos(42, plan=None)
    assert all(t.state == TaskState.DONE for t in tasks)
    _, chaotic, tasks = _run_chaos(42, _hostile_plan(42))
    assert all(t.state == TaskState.DONE for t in tasks)
    assert chaotic.makespan > clean.makespan
    assert not clean.log.events("fault_injected")


def test_chaos_with_membership_churn_completes_every_drain_it_ordered():
    """The hostile plan plus elastic churn — a mid-run join that is
    itself crashed soon after, a graceful drain racing the chaos."""
    plan = _hostile_plan(42).join("w8", at=1.5).drain("w4", at=2.5).crash("w8", at=4.0)
    _, stats, tasks = _run_chaos(42, plan)
    assert all(t.state == TaskState.DONE for t in tasks)
    assert [e.worker for e in stats.log.events("worker_drain")] == ["w4"]
    assert [e.worker for e in stats.log.events("worker_drained")] == ["w4"]
    assert any(e.worker == "w8" for e in stats.log.events("worker_join"))
    assert stats.log.events()[-1].kind == "workflow_done"


def _normalized(events):
    """Events with run-scoped cache-name nonces aliased by appearance.

    Declared files get a fresh random nonce and tasks a process-global
    counter every run (they are identities, not content); everything
    else — times, kinds, workers, sizes, categories — must replay
    exactly.
    """
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


def test_chaos_run_is_deterministic_for_a_seed():
    _, first, _ = _run_chaos(7, _hostile_plan(7))
    _, second, _ = _run_chaos(7, _hostile_plan(7))
    # the full event sequence — times, workers, files, sizes — replays
    assert _normalized(first.log.events()) == _normalized(second.log.events())
    # a different seed shifts the probabilistic faults
    _, other, _ = _run_chaos(8, _hostile_plan(8))
    assert _normalized(other.log.events()) != _normalized(first.log.events())
