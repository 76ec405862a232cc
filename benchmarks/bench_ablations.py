"""Ablations of the design choices DESIGN.md calls out.

Not paper figures — these isolate individual TaskVine mechanisms by
turning them off and measuring the cost on representative workloads:

* data-locality placement vs random placement,
* the serverless model vs plain per-task startup (BGD),
* proactive temp-file replication under worker churn,
* worker-to-worker transfers vs manager-only distribution.
"""

import random

from repro.core.policy import Policy
from repro.core.task import Task, TaskState
from repro.sim.cluster import SimCluster
from repro.sim.simmanager import SimManager
from repro.sim.workloads import bgd_workflow

MB = 1_000_000


def _locality_workload(locality: bool, seed: int = 0):
    """A trickle of group-affine tasks onto a cluster with spare slots.

    Placement only has a choice when several workers have free
    capacity; a saturated cluster forces every task into whichever slot
    frees next regardless of policy (the dispatch-pressure regime the
    paper's §3.3 "future considerations" discusses).  So the ablation
    offers ~5 concurrent tasks to 32 slots: with locality each group's
    dataset settles on one worker; random placement copies every
    dataset almost everywhere.
    """
    rng = random.Random(seed)
    cluster = SimCluster()
    cluster.add_workers(8, cores=4, disk=4_000_000)
    m = SimManager(cluster, Policy(locality=locality), seed=seed)
    groups = [m.declare_dataset(f"group-{g}", 800 * MB) for g in range(8)]

    def submit_one(i: int) -> None:
        t = Task(f"analyze {i}").set_category("analyze")
        t.add_input(groups[i % 8], "data")
        m.submit(t, duration=rng.uniform(8, 12))

    for i in range(160):
        cluster.sim.schedule_at(2.0 * i, submit_one, i)
    # external submissions keep arriving, so drive the raw event loop
    # to completion rather than stopping at a transient quiet point
    cluster.sim.run()
    stats = m.run(finalize=False)  # workflow already complete: collect stats
    if not all(t.state.value == "done" for t in m.tasks.values()):
        raise RuntimeError("trickle workload did not complete")
    return stats


def test_ablation_locality_placement(once, bench_report):
    from repro.core.events import makespan

    def both():
        return _locality_workload(True), _locality_workload(False)

    with_locality, without = once(both)
    bytes_moved = lambda s: sum(s.bytes_by_source.values())
    bench_report.record("locality_bytes_moved", bytes_moved(with_locality))
    bench_report.record("random_bytes_moved", bytes_moved(without))
    bench_report.record("locality_makespan_s", makespan(with_locality.log))
    bench_report.record("random_makespan_s", makespan(without.log))
    print("\n=== ablation: data-locality placement ===")
    print(f"{'mode':>10s} {'makespan(s)':>12s} {'GB moved':>9s} {'transfers':>10s}")
    for label, s in [("locality", with_locality), ("random", without)]:
        print(
            f"{label:>10s} {makespan(s.log):12.1f} {bytes_moved(s)/1e9:9.1f} "
            f"{sum(s.transfer_counts.values()):10d}"
        )
    # locality moves dramatically fewer bytes: each dataset settles on
    # a few workers instead of being copied wherever tasks land
    assert bytes_moved(with_locality) < bytes_moved(without) / 1.5


def test_ablation_serverless_vs_plain_tasks(once, bench_report):
    """The BGD experiment with and without the serverless model.

    Plain tasks pay environment startup (interpreter + imports) per
    task; function calls pay it once per worker (paper §3.4 claim).
    """
    # per-task environment setup dominates short tasks: this is the
    # regime the serverless model targets (paper §3.4)
    startup = 20.0
    work = (5.0, 15.0)

    def plain(seed=0):
        rng = random.Random(seed)
        cluster = SimCluster()
        cluster.add_workers(50, cores=5, disk=2_000_000)
        m = SimManager(cluster, seed=seed)
        env = m.declare_dataset("bgd-env", 89 * MB)
        for i in range(500):
            t = Task(f"bgd {i}").set_category("bgd")
            t.add_input(env, "env")
            m.submit(t, duration=startup + rng.uniform(*work))
        return m.run()

    def serverless():
        # same 5-core workers: the library holds four cores and its
        # four slots share them — four calls at once and one core left
        # for plain tasks (the paper's resource model, §3.4)
        return bgd_workflow(
            n_calls=500, n_workers=50, cores=5, env_mb=89,
            library_startup=startup, call_time_range=work,
            function_slots=4, seed=0,
        )

    plain_run, sls = once(lambda: (plain(), serverless()))
    bench_report.record("plain_makespan_s", plain_run.makespan)
    bench_report.record("serverless_makespan_s", sls.stats.makespan)
    print("\n=== ablation: serverless vs plain tasks (BGD, 500 short calls) ===")
    print(f"{'mode':>11s} {'makespan(s)':>12s}")
    print(f"{'plain':>11s} {plain_run.makespan:12.1f}")
    print(f"{'serverless':>11s} {sls.stats.makespan:12.1f}")
    # startup paid 500x (amortized over 250 slots) vs once per worker
    assert sls.stats.makespan < plain_run.makespan


def test_ablation_replication_single_vs_double(once, bench_report):
    """Temp replication lets a pipeline survive worker departures."""
    def both():
        results = {}
        for replicas in (1, 2):
            cluster = SimCluster()
            for i in range(6):
                cluster.add_worker(cores=2, worker_id=f"w{i}", disk=2_000_000)
            m = SimManager(
                cluster, Policy(temp_replica_count=replicas), max_task_retries=5
            )
            prev = None
            tasks = []
            for i in range(5):
                out = m.declare_temp()
                t = Task(f"stage{i}").set_category("pipeline")
                if prev is not None:
                    t.add_input(prev, "in")
                t.add_output(out, "out")
                m.submit(t, duration=30.0, output_sizes={"out": 20 * MB})
                tasks.append(t)
                prev = out
            cluster.remove_worker("w0", at=45.0)
            cluster.remove_worker("w1", at=75.0)
            stats = m.run(finalize=False)
            results[replicas] = (stats, tasks, m.tasks_requeued)
        return results

    results = once(both)
    for replicas, (stats, _tasks, requeued) in sorted(results.items()):
        bench_report.record(f"replicas_{replicas}_makespan_s", stats.makespan)
        bench_report.record(f"replicas_{replicas}_requeued", requeued)
    print("\n=== ablation: temp replication under worker churn ===")
    print(f"{'replicas':>9s} {'makespan(s)':>12s} {'requeued':>9s}")
    for replicas, (stats, tasks, requeued) in sorted(results.items()):
        print(f"{replicas:9d} {stats.makespan:12.1f} {requeued:9d}")
        assert all(t.state == TaskState.DONE for t in tasks)
    # with replication, losing a producer does not force re-running its
    # upstream chain, so the run completes no slower
    assert results[2][0].makespan <= results[1][0].makespan


def test_ablation_peer_transfers_off(once, bench_report):
    """Manager-only distribution vs peer transfers for a shared asset."""

    def run(worker_limit):
        cluster = SimCluster()
        cluster.add_workers(40, cores=4, disk=4_000_000)
        m = SimManager(
            cluster,
            Policy(worker_transfer_limit=worker_limit, source_transfer_limit=3),
            seed=0,
        )
        data = m.declare_dataset("big-env", 1000 * MB)
        for i in range(160):
            t = Task(f"t{i}").add_input(data, "env")
            m.submit(t, duration=10.0)
        return m.run()

    def both():
        return run(3), run(0)

    with_peers, without = once(both)
    bench_report.from_stats(with_peers, prefix="peers")
    bench_report.from_stats(without, prefix="nopeers")
    print("\n=== ablation: peer transfers for a 1 GB shared asset ===")
    print(f"{'mode':>9s} {'makespan(s)':>12s} {'via manager':>12s} {'via peers':>10s}")
    for label, s in [("peers", with_peers), ("none", without)]:
        print(
            f"{label:>9s} {s.makespan:12.1f} "
            f"{s.transfer_counts.get('manager', 0):12d} "
            f"{s.transfer_counts.get('peer', 0):10d}"
        )
    assert with_peers.transfer_counts.get("peer", 0) > 30
    assert with_peers.makespan < without.makespan
