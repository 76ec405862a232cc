"""Integration tests for the simulated TaskVine runtime."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.events import task_rows, worker_busy
from repro.core.files import CacheLevel
from repro.core.library import FunctionCall
from repro.core.resources import Resources
from repro.core.task import Task, TaskState
from repro.sim.cluster import SimCluster, SimWorker
from repro.sim.simmanager import SimManager

MB = 1_000_000


def cluster_with(n=4, cores=4, **kw):
    c = SimCluster()
    c.add_workers(n, cores=cores, **kw)
    return c


def test_single_task_runs_to_completion():
    c = cluster_with(1)
    m = SimManager(c)
    data = m.declare_dataset("input", 10 * MB, cache="workflow")
    t = Task("consume input").add_input(data, "input")
    m.submit(t, duration=5.0)
    stats = m.run()
    assert t.state == TaskState.DONE
    assert stats.tasks_done == 1
    # 10 MB over 10GbE ~ 8ms, plus 5 s execution
    assert 5.0 < stats.makespan < 5.5


def test_run_on_a_finished_workflow_does_not_advance_time():
    """``run()`` with nothing to do must not pop whatever event happens
    to be queued (the engine tests its stop condition after a callback)."""
    m = SimManager(cluster_with(1))
    m.submit(Task("one"), duration=2.0)
    m.run(finalize=False)
    fired = []
    m.sim.schedule(100.0, fired.append, "stray")
    finished = m.sim.now
    for _ in range(3):  # (the first run left a pump behind at this instant)
        assert m.run(finalize=False).makespan == 0.0
    assert m.sim.now == finished and not fired
    # work submitted later still runs from where the clock stood
    m.submit(Task("two"), duration=3.0)
    assert m.run(finalize=False).finished == pytest.approx(finished + 3.0, abs=0.1)


def test_a_finalized_manager_stops_hearing_the_cluster():
    """A manager whose workflow ended is told of no later join or leave:
    its closed plane admits no worker, its log ends at
    ``workflow_done``, and the cluster keeps no callback of it (two
    BLAST-style runs on one cluster used to leave four behind)."""
    c = cluster_with(3, cores=1)
    first = SimManager(c)
    first.submit(Task("one"), duration=1.0)
    first.run()
    assert first.control.closed
    assert c.join_callbacks == [] and c.leave_callbacks == []
    members = sorted(first.control.workers)
    ended = len(first.control.log)

    second = SimManager(c)
    now = second.sim.now
    c.add_worker(cores=1, worker_id="late", at=now + 1.0)
    c.remove_worker(members[0], at=now + 2.0)
    second.submit(Task("two"), duration=5.0)
    assert second.run().tasks_done == 1
    assert "late" in c.workers and not c.workers[members[0]].connected

    assert sorted(first.control.workers) == members
    assert [e.kind for e in first.control.log.events()[ended:]] == []
    assert first.control.log.events()[-1].kind == "workflow_done"
    assert c.join_callbacks == [] and c.leave_callbacks == []


def test_tasks_pack_by_cores():
    c = cluster_with(1, cores=4)
    m = SimManager(c)
    tasks = [Task("sleep") for _ in range(8)]
    for t in tasks:
        m.submit(t, duration=10.0)
    stats = m.run()
    # 8 single-core tasks on one 4-core worker: two waves
    assert stats.makespan == pytest.approx(20.0, abs=0.2)


def test_multicore_task_excludes_small_workers():
    c = SimCluster()
    c.add_worker(cores=2, worker_id="small")
    c.add_worker(cores=8, worker_id="big")
    m = SimManager(c)
    t = Task("wide").set_resources(Resources(cores=6))
    m.submit(t, duration=1.0)
    m.run()
    assert t.worker_id == "big"


def test_shared_input_transferred_once_per_worker():
    c = cluster_with(2)
    m = SimManager(c)
    data = m.declare_dataset("shared", 100 * MB)
    tasks = [Task("use").add_input(data, "d") for _ in range(8)]
    for t in tasks:
        m.submit(t, duration=1.0)
    stats = m.run()
    total_fetches = stats.transfer_counts.get("manager", 0) + stats.transfer_counts.get("peer", 0)
    assert total_fetches == 2  # once per worker, shared by 4 tasks each


def test_locality_placement_reuses_cached_worker():
    c = cluster_with(3)
    m = SimManager(c)
    data = m.declare_dataset("big", 500 * MB)
    t1 = Task("first").add_input(data, "d")
    m.submit(t1, duration=1.0)
    m.run(finalize=False)
    t2 = Task("second").add_input(data, "d")
    m.submit(t2, duration=1.0)
    m.run(finalize=False)
    assert t2.worker_id == t1.worker_id


def test_peer_transfer_preferred_over_manager():
    c = cluster_with(2)
    m = SimManager(c)
    data = m.declare_dataset("d", 50 * MB)
    t1 = Task("a").add_input(data, "d")
    m.submit(t1, duration=1.0)
    m.run(finalize=False)
    # force the second task onto the other worker by filling the first
    filler = Task("filler").set_resources(Resources(cores=4))
    t2 = Task("b").add_input(data, "d")
    m.submit(filler, duration=30.0)
    m.submit(t2, duration=1.0)
    stats = m.run()
    assert stats.transfer_counts.get("peer", 0) >= 1


def test_cold_then_hot_cache(tmp_path):
    """Worker-lifetime objects persist across workflow runs (Fig 9)."""
    c = cluster_with(4)
    m1 = SimManager(c, seed=1)
    url = m1.declare_url("https://archive/blast.tar.gz", 600 * MB, cache="worker")
    sw = m1.declare_untar(url, unpacked_size=1500 * MB, stage_time=20.0, cache="worker")
    for _ in range(8):
        m1.submit(Task("blast").add_input(sw, "blast"), duration=10.0)
    cold = m1.run()

    m2 = SimManager(c, seed=2)
    url2 = m2.declare_url("https://archive/blast.tar.gz", 600 * MB, cache="worker")
    sw2 = m2.declare_untar(url2, unpacked_size=1500 * MB, stage_time=20.0, cache="worker")
    assert sw2.cache_name == sw.cache_name  # content-addressable across runs
    for _ in range(8):
        m2.submit(Task("blast").add_input(sw2, "blast"), duration=10.0)
    hot = m2.run()
    assert hot.makespan < cold.makespan / 2
    assert hot.transfer_counts.get("url", 0) == 0
    assert hot.transfer_counts.get("stage", 0) == 0


def test_workflow_level_files_collected_worker_level_kept():
    c = cluster_with(1)
    m = SimManager(c)
    keep = m.declare_dataset("keep", MB, cache="worker")
    drop = m.declare_dataset("drop", MB, cache="workflow")
    t = Task("x").add_input(keep, "k").add_input(drop, "d")
    m.submit(t, duration=1.0)
    m.run()  # finalize=True
    worker = next(iter(c.workers.values()))
    assert worker.has(keep.cache_name)
    assert not worker.has(drop.cache_name)


def test_task_level_input_deleted_after_use():
    c = cluster_with(1)
    m = SimManager(c)
    query = m.declare_dataset("query", MB, cache="task")
    t = Task("q").add_input(query, "q")
    m.submit(t, duration=1.0)
    m.run(finalize=False)
    worker = next(iter(c.workers.values()))
    assert not worker.has(query.cache_name)


def test_temp_output_consumed_by_downstream_task():
    c = cluster_with(2)
    m = SimManager(c)
    temp = m.declare_temp()
    producer = Task("produce").add_output(temp, "out")
    consumer = Task("consume").add_input(temp, "in")
    m.submit(producer, duration=2.0, output_sizes={"out": 30 * MB})
    m.submit(consumer, duration=1.0)
    stats = m.run()
    assert producer.state == consumer.state == TaskState.DONE
    assert consumer.started_at >= producer.finished_at
    assert stats.makespan >= 3.0


def test_bring_back_outputs_delay_completion():
    c = cluster_with(1)
    m = SimManager(c)
    out = m.declare_output(size=0, bring_back=True)
    t = Task("emit").add_output(out, "o")
    # 1.25 GB over 10 GbE back to the manager ~ 1 s
    m.submit(t, duration=1.0, output_sizes={"o": 1_250 * MB})
    stats = m.run()
    assert stats.makespan == pytest.approx(2.0, abs=0.1)
    assert stats.transfer_counts.get("retrieve", 0) == 1


def test_minitask_staged_once_and_shared():
    c = cluster_with(1)
    m = SimManager(c)
    tar = m.declare_dataset("env.tar", 100 * MB, cache="workflow")
    env = m.declare_untar(tar, unpacked_size=300 * MB, stage_time=5.0)
    for _ in range(4):
        m.submit(Task("use env").add_input(env, "env"), duration=1.0)
    stats = m.run()
    assert stats.transfer_counts.get("stage", 0) == 1
    assert stats.transfer_counts.get("manager", 0) == 1  # the tarball


def test_minitask_staging_time_observed():
    c = cluster_with(1)
    m = SimManager(c)
    tar = m.declare_dataset("env.tar", 1, cache="workflow")
    env = m.declare_untar(tar, unpacked_size=1, stage_time=7.0)
    t = Task("use").add_input(env, "env")
    m.submit(t, duration=1.0)
    stats = m.run()
    assert stats.makespan == pytest.approx(8.0, abs=0.2)


def test_eviction_frees_space_for_new_objects():
    c = SimCluster()
    c.add_worker(cores=4, disk_capacity=250 * MB)
    m = SimManager(c)
    a = m.declare_dataset("a", 100 * MB)
    b = m.declare_dataset("b", 100 * MB)
    d = m.declare_dataset("d", 100 * MB)
    # 4-core tasks serialize, so earlier inputs become unpinned and evictable
    wide = Resources(cores=4)
    m.submit(Task("1").set_resources(wide).add_input(a, "a"), duration=1.0)
    m.submit(Task("2").set_resources(wide).add_input(b, "b"), duration=1.0)
    m.submit(Task("3").set_resources(wide).add_input(d, "d"), duration=1.0)
    stats = m.run(finalize=False)
    worker = next(iter(c.workers.values()))
    assert stats.evictions >= 1
    assert worker.cache_bytes() <= 250 * MB
    assert worker.cache_bytes() == sum(o.size for o in worker.cache.values())


def test_worker_joining_mid_run_is_used():
    c = SimCluster()
    c.add_worker(cores=1, worker_id="early")
    c.add_worker(cores=4, worker_id="late", at=50.0)
    m = SimManager(c)
    tasks = [Task(f"t{i}") for i in range(10)]
    for t in tasks:
        m.submit(t, duration=30.0)
    m.run()
    assert any(t.worker_id == "late" for t in tasks)


def test_serverless_library_and_function_calls():
    c = cluster_with(2, cores=4)
    m = SimManager(c)
    env = m.declare_dataset("lib-env", 80 * MB, cache="workflow")
    m.create_library(
        "opt", env_files=[env], resources=Resources(cores=1),
        startup_time=10.0, slots=2,
    )
    m.install_library("opt")
    calls = [FunctionCall("opt", "gradient", i) for i in range(8)]
    for fc in calls:
        m.submit(fc, duration=5.0)
    stats = m.run()
    assert all(fc.state == TaskState.DONE for fc in calls)
    # library startup gates the first calls
    first_start = min(fc.started_at for fc in calls)
    assert first_start >= 10.0
    # 2 workers x 2 slots = 4 concurrent calls, 8 calls => 2 waves of 5 s
    assert stats.makespan == pytest.approx(first_start + 10.0, abs=1.5)
    # library instances appear in the task view with category "library"
    rows = task_rows(stats.log)
    assert sum(1 for r in rows if r.category == "library") == 2


def test_function_call_waits_for_library():
    c = cluster_with(1)
    m = SimManager(c)
    m.create_library("l", startup_time=5.0, slots=1)
    m.install_library("l")
    fc = FunctionCall("l", "f")
    m.submit(fc, duration=1.0)
    m.run()
    assert fc.started_at >= 5.0


def test_worker_view_reports_transfer_and_execution_time():
    c = cluster_with(1)
    m = SimManager(c)
    # 1.25 GB at 10 GbE = 1 s transfer
    data = m.declare_dataset("big", 1_250 * MB)
    t = Task("use").add_input(data, "d")
    m.submit(t, duration=3.0)
    stats = m.run()
    busy = worker_busy(stats.log)
    w = busy[t.worker_id]
    assert w.transferring == pytest.approx(1.0, abs=0.1)
    assert w.executing == pytest.approx(3.0, abs=0.1)


def test_submit_twice_rejected():
    c = cluster_with(1)
    m = SimManager(c)
    t = Task("x")
    m.submit(t, duration=1.0)
    with pytest.raises(RuntimeError):
        m.submit(t, duration=1.0)


def test_undeclared_input_rejected():
    from repro.core.files import BufferFile

    c = cluster_with(1)
    m = SimManager(c)
    foreign = BufferFile(b"x")
    with pytest.raises(RuntimeError):
        m.submit(Task("x").add_input(foreign, "f"), duration=1.0)


@given(
    st.lists(
        st.one_of(
            st.tuples(
                st.just("insert"), st.integers(0, 7), st.integers(0, 10**9)
            ),
            st.tuples(st.just("remove"), st.integers(0, 7), st.just(0)),
            st.tuples(st.just("leave"), st.just(0), st.just(0)),
        ),
        max_size=60,
    )
)
def test_property_cache_bytes_is_the_sum_of_what_is_cached(ops):
    """The running total ``store_replica`` reads on every insert equals
    a recount after any mix of inserts (repeats keep the first size),
    removals (evictions are removals) and departures."""
    worker = SimWorker("w", Resources(cores=1), disk_capacity=10**12)
    for op, key, size in ops:
        if op == "insert":
            worker.insert(f"f{key}", size, CacheLevel.WORKFLOW, now=0.0)
        elif op == "remove":
            worker.remove(f"f{key}")
        else:
            worker.clear_cache()
        assert worker.cache_bytes() == sum(o.size for o in worker.cache.values())
