"""On-demand result fetches in the simulated runtime.

The sim mirrors the real manager's by-reference resolution path:
result bytes stay in worker caches until a fetch dereferences them,
concurrent fetches of one name coalesce into a single serve, a holder
dying mid-serve retries the remaining holders, and a name whose
replicas vanished regenerates through lineage before serving.
"""

import pytest

from repro.core.policy import Policy
from repro.core.task import Task, TaskState
from repro.observe.cli import replay_status
from repro.observe.txnlog import read_transactions
from repro.sim.cluster import SimCluster
from repro.sim.simmanager import SimManager

MB = 1_000_000


def _produce(m, size=10 * MB, duration=1.0, cache_name=None):
    """Run one task producing a temp output; returns its cache name."""
    out = m.declare_temp()
    t = Task("produce").add_output(out, "out")
    m.submit(t, duration=duration, output_sizes={"out": size})
    m.run(finalize=False)
    assert t.state == TaskState.DONE
    return out.cache_name


def test_fetch_serves_from_a_holder_and_counts_fetch_bytes():
    c = SimCluster()
    c.add_worker(worker_id="w0")
    m = SimManager(c)
    name = _produce(m, size=10 * MB)

    served = []
    m.fetch_result(name, served.append)
    m.run(finalize=False)
    assert served == ["w0"]
    # accounted in its own category: a fetch is not a bring-back
    assert m.control.transfer_counts.get("fetch") == 1
    assert m.control.bytes_by_source.get("fetch") == 10 * MB
    assert not m.control.bytes_by_source.get("retrieve")
    ends = [e for e in m.log.events("transfer_end") if e.category == "@fetch"]
    assert [e.file for e in ends] == [name]


def test_concurrent_fetches_coalesce_into_one_serve():
    c = SimCluster()
    c.add_worker(worker_id="w0")
    m = SimManager(c)
    name = _produce(m, size=5 * MB)

    served = []
    m.fetch_result(name, lambda w: served.append(("first", w)))
    m.fetch_result(name, lambda w: served.append(("second", w)))
    m.run(finalize=False)
    # both waiters settle, but only one transfer moved the bytes
    assert served == [("first", "w0"), ("second", "w0")]
    assert m.control.transfer_counts.get("fetch") == 1


def test_fetch_retries_surviving_holder_when_the_asked_worker_dies():
    c = SimCluster()
    c.add_worker(worker_id="w0")
    c.add_worker(worker_id="w1")
    m = SimManager(c, Policy(temp_replica_count=2))
    name = _produce(m, size=10 * MB)
    m.control.pump()
    m.sim.run()  # drain the replication transfer
    assert set(m.replicas.locate(name)) == {"w0", "w1"}

    served = []
    m.fetch_result(name, served.append)  # asks w0 (deterministic min)
    c.remove_worker("w0", at=m.sim.now)  # dies mid-serve
    m.run(finalize=False)
    assert served == ["w1"]
    retried = m.log.events("fetch_retried")
    assert [(e.worker, e.file, e.category) for e in retried] == [
        ("w0", name, "worker_lost")
    ]


def test_fetch_regenerates_vanished_results_through_lineage():
    c = SimCluster()
    c.add_worker(worker_id="w0")
    c.add_worker(worker_id="w1")
    m = SimManager(c)
    name = _produce(m, size=8 * MB)

    # every replica vanishes with its holder; lineage still knows how
    # to make the bytes again
    holder = next(iter(m.replicas.locate(name)))
    c.remove_worker(holder, at=m.sim.now)
    m.sim.run()
    assert not m.replicas.locate(name)

    served = []
    m.fetch_result(name, served.append)
    m.run(finalize=False)
    assert served and served[0] is not None
    assert m.log.events("file_regenerated")
    assert m.control.transfer_counts.get("fetch") == 1


def test_fetch_of_an_unservable_name_settles_none():
    c = SimCluster()
    c.add_worker(worker_id="w0")
    m = SimManager(c)
    # declared but never produced and not regenerable: no producer task
    f = m.declare_temp()

    served = ["sentinel"]
    m.fetch_result(f.cache_name, lambda w: served.__setitem__(0, w))
    m.run(finalize=False)
    assert served == [None]
    assert not m.control.transfer_counts.get("fetch")


# -- bring_back outputs: the shared-storage retrieval rides the plane ----


def _retrieves(m, kind):
    return [e for e in m.log.events(kind) if e.category == "@retrieve"]


def test_bring_back_retrievals_are_paired_in_the_txn_log(tmp_path):
    path = str(tmp_path / "txn.jsonl")
    c = SimCluster()
    c.add_workers(2, cores=2)
    m = SimManager(c, txn_log_path=path)
    outs = [m.declare_output(size=5 * MB, bring_back=True) for _ in range(3)]
    tasks = [Task(f"emit {i}").add_output(o, "o") for i, o in enumerate(outs)]
    # a second, kept-at-worker output on one of them: the task waits for both
    kept = m.declare_output(size=MB, bring_back=True, keep_at_worker=True)
    tasks[0].add_output(kept, "kept")
    for t in tasks:
        m.submit(t, duration=1.0)
    stats = m.run(finalize=False)
    assert all(t.state == TaskState.DONE for t in tasks)
    # shared-storage semantics: the manager now sources every output,
    # and only the kept one still has its worker copy
    assert all(m.control.sources.get(o.cache_name) == "@manager" for o in outs + [kept])
    assert [bool(m.replicas.locate(o.cache_name)) for o in outs + [kept]] == [
        False, False, False, True,
    ]
    m.finalize()
    assert stats.transfer_counts["retrieve"] == 4
    assert stats.bytes_by_source["retrieve"] == 16 * MB
    _header, events = read_transactions(path, strict=True)
    starts = [e for e in events if e.kind == "transfer_start" and e.category == "@retrieve"]
    ends = [e for e in events if e.kind == "transfer_end" and e.category == "@retrieve"]
    assert len(starts) == len(ends) == 4
    assert replay_status(events).transfers_open == 0


def _slow_home_link():
    """10 MB takes 10 s to reach the manager; peers move it in ~10 ms."""
    c = SimCluster(manager_down_bps=1e6)
    for wid in ("w0", "w1"):
        c.add_worker(worker_id=wid)
    return c


def test_retrieval_moves_to_another_holder_when_the_asked_one_crashes():
    c = _slow_home_link()
    m = SimManager(c, Policy(temp_replica_count=2))
    out = m.declare_output(size=10 * MB, bring_back=True, keep_at_worker=True)
    t = Task("emit").add_output(out, "o")
    m.submit(t, duration=1.0)
    c.remove_worker("w0", at=3.0)  # replicated by then, still retrieving
    m.run()
    assert t.state == TaskState.DONE and t.retries_used == 0
    assert [(e.worker, e.category) for e in m.log.events("fetch_retried")] == [
        ("w0", "worker_lost")
    ]
    assert [e.worker for e in _retrieves(m, "transfer_start")] == ["w0", "w1"]
    assert [e.worker for e in _retrieves(m, "transfer_end")] == ["w1"]
    assert m.control.transfer_counts["retrieve"] == 1


def test_retrieval_with_no_holder_left_regenerates_the_output():
    """The sole holder dies mid-retrieval: the task is not left in
    WAITING_RETRIEVAL (nor the run stalled until the fetch TTL) — a
    completion nothing backs is an attempt to repeat, so it re-runs."""
    c = _slow_home_link()
    m = SimManager(c)
    out = m.declare_output(size=10 * MB, bring_back=True)
    producer = Task("emit").add_output(out, "o")
    consumer = Task("use").add_input(out, "i")
    m.submit(producer, duration=1.0)
    m.submit(consumer, duration=5.0)  # running beside the replica when w0 dies
    c.remove_worker("w0", at=3.0)
    stats = m.run()
    assert producer.state == consumer.state == TaskState.DONE
    assert stats.finished < 60.0
    assert [
        e.task for e in m.log.events("task_requeued") if e.category == "result_lost"
    ] == [producer.task_id]
    assert [e.worker for e in _retrieves(m, "transfer_start")] == ["w0", "w1"]
    assert [e.worker for e in _retrieves(m, "transfer_end")] == ["w1"]
    assert m.control.sources.get(out.cache_name) == "@manager"


def test_a_result_lost_beyond_the_loss_budget_aborts_the_simulated_run():
    """The experiment's rule for a lost worker, applied to a lost result."""
    c = _slow_home_link()
    m = SimManager(c, max_task_retries=0)
    out = m.declare_output(size=10 * MB, bring_back=True)
    m.submit(Task("emit").add_output(out, "o"), duration=1.0)
    c.remove_worker("w0", at=3.0)
    with pytest.raises(RuntimeError, match="lost its result .* 1 times"):
        m.run()

