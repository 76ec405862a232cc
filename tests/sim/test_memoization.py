"""Simulated-runtime memoization: cross-run reuse and its soundness.

The chaos-grade contract under test (OxyMake's rule): a deterministic
resubmission is served from the memo store only while every recorded
output is still backed by a live replica; otherwise the entry is
observably invalidated (``memo_invalidated``) and the task actually
runs again — a stale binding is never served.
"""

from repro.core.policy import Policy
from repro.core.task import Task, TaskState
from repro.memo.store import MemoStore
from repro.sim.cluster import SimCluster
from repro.sim.simmanager import SimManager

MB = 1_000_000


def cluster_with(n=2, cores=4):
    c = SimCluster()
    c.add_workers(n, cores=cores)
    return c


def deterministic_batch(m, n=4, tenant="default"):
    """Submit n deterministic single-input tasks; returns the tasks."""
    data = m.declare_dataset("memo-input", 10 * MB, cache="worker")
    tasks = []
    for i in range(n):
        t = Task(f"process --shard {i}").set_deterministic().set_tenant(tenant)
        t.add_input(data, "in.dat")
        t.add_output(m.declare_temp(), "out.dat")
        m.submit(t, duration=5.0, output_sizes={"out.dat": 1 * MB})
        tasks.append(t)
    return tasks


def events(m, kind):
    return list(m.control.log.events(kind))


def test_warm_resubmission_hits_across_managers(tmp_path):
    cluster = cluster_with()
    store = MemoStore(tmp_path / "memo")

    cold = SimManager(cluster, memo_store=store)
    tasks = deterministic_batch(cold)
    stats = cold.run(finalize=False)  # keep worker caches alive
    assert all(t.state == TaskState.DONE for t in tasks)
    assert stats.makespan >= 5.0
    assert len(events(cold, "memo_miss")) == 4
    assert len(store) == 4

    warm = SimManager(cluster, memo_store=store)
    tasks2 = deterministic_batch(warm)
    stats2 = warm.run(finalize=False)
    assert all(t.state == TaskState.DONE for t in tasks2)
    assert stats2.makespan == 0.0  # nothing dispatched
    assert len(events(warm, "memo_hit")) == 4
    assert len(events(warm, "task_start")) == 0
    # hits recorded in the persistent index
    assert sum(e.hits for e in store.entries()) == 4
    # the outputs resolve to the same cache names both runs
    assert sorted(t.outputs[0][1].cache_name for t in tasks) == sorted(
        t.outputs[0][1].cache_name for t in tasks2
    )


def test_cross_tenant_hit(tmp_path):
    cluster = cluster_with()
    store = MemoStore(tmp_path / "memo")
    m = SimManager(cluster, memo_store=store)
    deterministic_batch(m, n=2, tenant="alice")
    m.run(finalize=False)
    deterministic_batch(m, n=2, tenant="bob")
    m.run(finalize=False)
    hits = events(m, "memo_hit")
    assert len(hits) == 2
    assert all(e.category == "bob" for e in hits)
    # provenance still names the tenant that paid for the execution
    assert {e.tenant for e in store.entries()} == {"alice"}


def test_opted_out_tenant_never_hits_or_records(tmp_path):
    cluster = cluster_with()
    store = MemoStore(tmp_path / "memo")
    m = SimManager(
        cluster, Policy(memo_opt_out=["alice"]), memo_store=store
    )
    deterministic_batch(m, n=2, tenant="alice")
    m.run(finalize=False)
    assert len(store) == 0
    assert not events(m, "memo_hit") and not events(m, "memo_miss")
    deterministic_batch(m, n=2, tenant="alice")
    m.run(finalize=False)
    assert not events(m, "memo_hit")


def test_nondeterministic_task_not_memoized(tmp_path):
    cluster = cluster_with()
    store = MemoStore(tmp_path / "memo")
    m = SimManager(cluster, memo_store=store)
    data = m.declare_dataset("nd-in", MB, cache="worker")
    t = Task("date > out.dat").add_input(data, "in.dat")  # no set_deterministic
    t.add_output(m.declare_temp(), "out.dat")
    m.submit(t, duration=1.0, output_sizes={"out.dat": 10})
    m.run(finalize=False)
    assert len(store) == 0
    assert not events(m, "memo_miss")


def test_lost_replicas_invalidate_and_regenerate(tmp_path):
    # chaos case: the memo index survives, but the cluster holding the
    # replicas is gone (sim retains no payloads, so nothing backs the
    # entries) — the warm run must invalidate and actually re-run
    store = MemoStore(tmp_path / "memo")
    cold = SimManager(cluster_with(), memo_store=store)
    tasks = deterministic_batch(cold)
    cold_stats = cold.run(finalize=False)
    recorded = sorted(store.get(t.merkle).output_names()[0] for t in tasks)

    fresh_cluster = cluster_with()  # empty worker caches
    warm = SimManager(fresh_cluster, memo_store=store)
    tasks2 = deterministic_batch(warm)
    stats = warm.run(finalize=False)
    assert all(t.state == TaskState.DONE for t in tasks2)
    assert len(events(warm, "memo_invalidated")) == 4
    assert not events(warm, "memo_hit")
    assert len(events(warm, "task_start")) == 4  # really executed
    # ... at the cold run's price: an invalidated entry buys nothing
    assert stats.makespan >= 0.9 * cold_stats.makespan >= 0.9 * 5.0
    # re-recorded under the same deterministic names: a third run hits
    assert sorted(store.get(t.merkle).output_names()[0] for t in tasks2) == recorded
    third = SimManager(fresh_cluster, memo_store=store)
    tasks3 = deterministic_batch(third)
    third.run(finalize=False)
    assert len(events(third, "memo_hit")) == 4
    assert not events(third, "task_start")


def test_corrupt_entry_is_never_served(tmp_path):
    # seed a plausible-but-wrong binding: same merkle, but its recorded
    # output name has no replica anywhere — serving it would hand the
    # application a file that does not exist
    cluster = cluster_with()
    store = MemoStore(tmp_path / "memo")
    m = SimManager(cluster, memo_store=store)
    tasks = deterministic_batch(m, n=1)
    m.run(finalize=False)
    entry = store.get(tasks[0].merkle)
    entry.outputs[0].cache_name = "memo-md5-" + "0" * 32
    store.flush()

    m2 = SimManager(cluster, memo_store=store)
    tasks2 = deterministic_batch(m2, n=1)
    m2.run(finalize=False)
    assert tasks2[0].state == TaskState.DONE
    assert not events(m2, "memo_hit")
    assert len(events(m2, "task_start")) == 1  # executed, not served


def test_pre_referenced_temp_output_is_not_renamed(tmp_path):
    # a consumer submitted *before* its producer pins the temp's
    # placeholder name; renaming it for memoization would strand the
    # consumer waiting on a name never produced
    cluster = cluster_with()
    store = MemoStore(tmp_path / "memo")
    m = SimManager(cluster, memo_store=store)
    data = m.declare_dataset("chain-in", MB, cache="worker")
    mid = m.declare_temp()
    consumer = Task("stage2").add_input(mid, "mid.dat")
    consumer.add_output(m.declare_temp(), "final.dat")
    m.submit(consumer, duration=1.0, output_sizes={"final.dat": 10})
    producer = Task("stage1").set_deterministic().add_input(data, "in.dat")
    producer.add_output(mid, "mid.dat")
    m.submit(producer, duration=1.0, output_sizes={"mid.dat": 10})
    m.run(finalize=False)
    assert consumer.state == TaskState.DONE
    assert producer.state == TaskState.DONE
    assert mid.cache_name.startswith("temp-rnd-")  # rename was refused
