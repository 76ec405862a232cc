"""Cross-runtime consistency: the same workflow on real vs simulated.

Both runtimes drive identical policy code, so for the same declared
workflow the *data-movement structure* must agree: how many transfers
each kind of source serves, how often the environment is staged, and
what ends up cached where — even though wall-clock and virtual time
differ completely.
"""

import inspect

import pytest

from repro.core.control_plane import ManagerError, RuntimePort, source_kind
from repro.core.events import peak_transfer_concurrency
from repro.core.files import BufferFile
from repro.core.manager import Manager
from repro.core.policy import Policy
from repro.core.task import Task, TaskState
from repro.sim.cluster import SimCluster
from repro.sim.simmanager import SimManager
from tests.integration.conftest import Cluster

N_TASKS = 8
N_PAIRS = 4


def _real_run(tmp_path):
    c = Cluster(tmp_path, n_workers=2)
    try:
        m = c.manager
        shared = m.declare_buffer(b"shared-dataset" * 100)
        tasks = []
        for i in range(N_TASKS):
            t = Task(f"cat data > /dev/null && echo {i}")
            t.add_input(shared, "data")
            tasks.append(t)
            m.submit(t)
        m.run_until_done(timeout=120)
        assert all(t.state == TaskState.DONE for t in tasks)
        with m._lock:
            pushes = sum(
                1 for e in m.log.events("transfer_start")
                if e.file == shared.cache_name
            )
            holders = len(m.replicas.locate(shared.cache_name))
            by_worker = {}
            for t in tasks:
                by_worker[t.worker_id] = by_worker.get(t.worker_id, 0) + 1
        return pushes, holders, by_worker
    finally:
        c.stop()


def _sim_run():
    cluster = SimCluster()
    cluster.add_workers(2, cores=4)
    m = SimManager(cluster)
    shared = m.declare_dataset("shared-dataset", 1400)
    tasks = []
    for i in range(N_TASKS):
        t = Task(f"cat {i}")
        t.add_input(shared, "data")
        tasks.append(t)
        m.submit(t, duration=0.5)
    m.run(finalize=False)
    pushes = sum(
        1 for e in m.log.events("transfer_start")
        if e.file == shared.cache_name
    )
    holders = len(m.replicas.locate(shared.cache_name))
    by_worker = {}
    for t in tasks:
        by_worker[t.worker_id] = by_worker.get(t.worker_id, 0) + 1
    return pushes, holders, by_worker


def test_same_workflow_same_movement_structure(tmp_path):
    real_pushes, real_holders, real_spread = _real_run(tmp_path)
    sim_pushes, sim_holders, sim_spread = _sim_run()
    # the shared input reaches each worker exactly once in both runtimes
    assert real_pushes == sim_pushes == 2
    assert real_holders == sim_holders == 2
    # both runtimes use both workers
    assert len(real_spread) == len(sim_spread) == 2
    assert sum(real_spread.values()) == sum(sim_spread.values()) == N_TASKS


# -- producer/consumer DAG: placement decisions must agree ---------------


def _movement_profile(control):
    """Per-source-kind transfer counts, derived two independent ways.

    ``transfer_counts`` is the control plane's own accounting;
    replaying ``transfer_end`` events from the shared log must give the
    same numbers (``@retrieve`` bring-backs are runtime bookkeeping, not
    scheduled transfers, and are excluded).
    """
    counted = {
        kind: n for kind, n in control.transfer_counts.items()
        if kind != "retrieve" and n
    }
    from_events = {}
    for e in control.log.events("transfer_end"):
        if e.category is None or e.category == "@retrieve":
            continue
        kind = source_kind(e.category)
        from_events[kind] = from_events.get(kind, 0) + 1
    assert counted == from_events
    return counted


def _check_dag_placement(producers, consumers):
    """The placement structure both runtimes must produce.

    Every consumer reads one temp file that exists only where its
    producer ran, so locality must colocate each pair; and with equal
    empty workers, load-balancing must spread the producers 2/2.
    """
    for producer, consumer in zip(producers, consumers):
        assert consumer.worker_id == producer.worker_id
    spread = {}
    for t in producers:
        spread[t.worker_id] = spread.get(t.worker_id, 0) + 1
    assert sorted(spread.values()) == [2, 2]


def _real_dag_run(tmp_path):
    c = Cluster(tmp_path, n_workers=2)
    try:
        m = c.manager
        shared = m.declare_buffer(b"common-config" * 50)
        producers, consumers = [], []
        for i in range(N_PAIRS):
            mid = m.declare_temp()
            # slow enough that every submission lands before any task
            # finishes, making placement purely load-balanced
            p = Task(f"cat cfg > /dev/null && sleep 0.7 && echo {i} > mid")
            p.add_input(shared, "cfg")
            p.add_output(mid, "mid")
            producers.append(p)
            q = Task("cat mid")
            q.add_input(mid, "mid")
            consumers.append(q)
        for t in producers + consumers:
            m.submit(t)
        m.run_until_done(timeout=120)
        assert all(t.state == TaskState.DONE for t in producers + consumers)
        with m._lock:
            _check_dag_placement(producers, consumers)
            return _movement_profile(m.control)
    finally:
        c.stop()


def _sim_dag_run():
    cluster = SimCluster()
    cluster.add_workers(2, cores=4)
    m = SimManager(cluster)
    shared = m.declare_dataset("common-config", 650)
    producers, consumers = [], []
    for i in range(N_PAIRS):
        mid = m.declare_temp(size=10)
        p = Task(f"produce {i}")
        p.add_input(shared, "cfg")
        p.add_output(mid, "mid")
        producers.append(p)
        q = Task(f"consume {i}")
        q.add_input(mid, "mid")
        consumers.append(q)
    for t in producers:
        m.submit(t, duration=5.0)
    for t in consumers:
        m.submit(t, duration=1.0)
    m.run(finalize=False)
    assert all(t.state == TaskState.DONE for t in producers + consumers)
    _check_dag_placement(producers, consumers)
    return _movement_profile(m.control)


def test_dag_identical_placement_and_transfer_profile(tmp_path):
    """One DAG, two runtimes, the same policy decisions.

    Four producers each write a temp file consumed by one downstream
    task.  Both runtimes must colocate each consumer with its producer,
    split the producers evenly, and move the shared input from the
    manager to each worker exactly once — with no peer or staging
    traffic at all, since every consumer reads locally.
    """
    real_profile = _real_dag_run(tmp_path)
    sim_profile = _sim_dag_run()
    assert real_profile == sim_profile == {"manager": 2}


# -- per-source concurrency: the Current Transfer Table's invariant ------


def test_real_runtime_respects_source_transfer_limit(tmp_path):
    """Replay the real runtime's event log against its transfer limits.

    With the manager capped at 2 concurrent outbound pushes and four
    workers all needing the same input at once, the emitted
    ``transfer_start``/``transfer_end`` stream must never show more
    than 2 simultaneously open manager transfers (and peer sources must
    stay within the per-worker cap).
    """
    c = Cluster(tmp_path, n_workers=4, source_transfer_limit=2)
    try:
        m = c.manager
        shared = m.declare_buffer(b"popular" * 4000)
        tasks = []
        for i in range(8):
            t = Task("cat data > /dev/null && sleep 0.3")
            t.add_input(shared, "data")
            tasks.append(t)
            m.submit(t)
        m.run_until_done(timeout=120)
        assert all(t.state == TaskState.DONE for t in tasks)
        with m._lock:
            peaks = peak_transfer_concurrency(m.log)
            limits = {
                source: m.transfers.limit_for(source)
                for source in peaks
                if source != "@retrieve"
            }
        assert peaks  # the workflow did move data
        for source, peak in peaks.items():
            if source == "@retrieve":
                continue
            limit = limits[source]
            assert limit is None or peak <= limit, (
                f"source {source} peaked at {peak} concurrent transfers "
                f"(limit {limit})"
            )
    finally:
        c.stop()


# -- one plane, one admission rule: what either runtime refuses ------------


def _real(policy):
    m = Manager(policy=policy)
    return m, m.submit, m.close


def _sim(policy):
    m = SimManager(SimCluster(), policy)
    return m, lambda task: m.submit(task, duration=1.0), lambda: None


@pytest.mark.parametrize("runtime", [_real, _sim])
def test_both_runtimes_refuse_the_same_submits(runtime):
    m, submit, close = runtime(Policy(default_task_quota=2))
    try:
        first = Task("true")
        submit(first)
        with pytest.raises(ManagerError, match="already submitted"):
            submit(first)
        with pytest.raises(ManagerError, match="was not declared"):
            submit(Task("cat in").add_input(BufferFile(b"stranger"), "in"))
        submit(Task("true"))
        with pytest.raises(ManagerError, match="quota"):
            submit(Task("true"))  # the tenant has its two outstanding
        assert len(m.tasks) == 2 == m.control.outstanding
    finally:
        close()


def test_both_runtimes_implement_the_port_and_nothing_asks_what_they_think():
    declared = [
        name
        for name, member in vars(RuntimePort).items()
        if inspect.isfunction(member) and not name.startswith("_")
    ]
    assert len(declared) == 16 and "worker_connected" not in declared
    for runtime in (Manager, SimManager):
        missing = [n for n in declared if not inspect.isfunction(vars(runtime).get(n))]
        assert not missing, f"{runtime.__name__} lacks {missing}"
