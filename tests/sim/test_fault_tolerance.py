"""Tests for dynamic worker departure and replication (paper §2.2)."""

import pytest

from repro.core.policy import Policy
from repro.core.task import Task, TaskState
from repro.sim.cluster import SimCluster
from repro.sim.simmanager import SimManager

MB = 1_000_000


def test_departing_worker_tasks_requeued():
    c = SimCluster()
    c.add_worker(cores=4, worker_id="victim")
    c.add_worker(cores=4, worker_id="survivor")
    m = SimManager(c)
    tasks = [Task(f"t{i}") for i in range(8)]
    for t in tasks:
        m.submit(t, duration=20.0)
    c.remove_worker("victim", at=5.0)
    stats = m.run()
    assert all(t.state == TaskState.DONE for t in tasks)
    assert m.tasks_requeued >= 1
    # everything ultimately ran on the survivor
    assert all(t.worker_id == "survivor" for t in tasks)
    leaves = stats.log.events("worker_leave")
    assert len(leaves) == 1 and leaves[0].worker == "victim"


def test_departure_drops_replicas():
    c = SimCluster()
    c.add_worker(cores=4, worker_id="w1")
    m = SimManager(c)
    data = m.declare_dataset("d", 10 * MB)
    t = Task("use").add_input(data, "d")
    m.submit(t, duration=1.0)
    m.run(finalize=False)
    assert m.replicas.has_replica(data.cache_name, "w1")
    c.add_worker(cores=4, worker_id="w2")
    c.remove_worker("w1", at=m.sim.now)
    m.sim.run(until=m.sim.now + 1)
    assert not m.replicas.has_replica(data.cache_name, "w1")


def test_lost_dataset_input_refetched_from_source():
    """External inputs survive worker loss: they are refetched."""
    c = SimCluster()
    c.add_worker(cores=4, worker_id="w1")
    c.add_worker(cores=4, worker_id="w2")
    m = SimManager(c)
    data = m.declare_dataset("d", 10 * MB)
    first = Task("a").add_input(data, "d")
    m.submit(first, duration=2.0)
    m.run(finalize=False)
    c.remove_worker(first.worker_id, at=m.sim.now)
    later = Task("b").add_input(data, "d")
    m.submit(later, duration=1.0)
    m.run()
    assert later.state == TaskState.DONE


def test_replication_keeps_temp_alive_across_loss():
    """With temp_replica_count=2, a produced file survives one departure."""
    c = SimCluster()
    for i in range(3):
        c.add_worker(cores=4, worker_id=f"w{i}")
    m = SimManager(c, Policy(temp_replica_count=2))
    temp = m.declare_temp()
    producer = Task("produce").add_output(temp, "out")
    m.submit(producer, duration=1.0, output_sizes={"out": 5 * MB})
    m.run(finalize=False)
    # replication is asynchronous: drain the in-flight copy
    m.sim.run(until=m.sim.now + 5.0)
    assert m.replicas.replica_count(temp.cache_name) == 2
    # kill the producer's worker; the surviving replica serves consumers
    consumer = Task("consume").add_input(temp, "in")
    m.submit(consumer, duration=1.0)
    c.remove_worker(producer.worker_id, at=m.sim.now)
    m.run(finalize=False)
    assert consumer.state == TaskState.DONE
    # re-replication restored the target count on the remaining workers
    assert m.replicas.replica_count(temp.cache_name) >= 1


def test_no_replication_by_default():
    c = SimCluster()
    c.add_workers(3, cores=4)
    m = SimManager(c)  # temp_replica_count=1
    temp = m.declare_temp()
    producer = Task("produce").add_output(temp, "out")
    m.submit(producer, duration=1.0, output_sizes={"out": 5 * MB})
    m.run(finalize=False)
    assert m.replicas.replica_count(temp.cache_name) == 1


def test_repeated_losses_exhaust_retries():
    c = SimCluster()
    for i in range(5):
        c.add_worker(cores=4, worker_id=f"w{i}")
    m = SimManager(c, max_task_retries=1)
    t = Task("long")
    m.submit(t, duration=100.0)
    # first loss: requeued; second loss: gives up
    c.remove_worker("w0", at=10.0)
    c.remove_worker("w1", at=20.0)
    c.remove_worker("w2", at=30.0)
    with pytest.raises(RuntimeError, match="giving up"):
        m.run(until=200.0)


def test_library_redeployed_is_not_ready_on_departed_worker():
    from repro.core.library import FunctionCall

    c = SimCluster()
    c.add_worker(cores=4, worker_id="w1")
    c.add_worker(cores=4, worker_id="w2")
    m = SimManager(c)
    m.create_library("lib", startup_time=2.0, slots=4)
    m.install_library("lib")
    calls = [FunctionCall("lib", "f") for _ in range(6)]
    for fc in calls:
        m.submit(fc, duration=10.0)
    c.remove_worker("w1", at=5.0)
    m.run()
    assert all(fc.state == TaskState.DONE for fc in calls)
    assert all(fc.worker_id == "w2" for fc in calls if fc.retries_used > 0)


def test_lost_temp_regenerated_from_lineage():
    """A temp with no surviving replica is recreated by re-running its
    producer (lineage recovery), transparently to the consumer."""
    c = SimCluster()
    c.add_worker(cores=4, worker_id="w1")
    c.add_worker(cores=4, worker_id="w2")
    m = SimManager(c)  # no proactive replication
    temp = m.declare_temp()
    producer = Task("produce").add_output(temp, "out")
    m.submit(producer, duration=10.0, output_sizes={"out": MB})
    m.run(finalize=False)
    producer_worker = producer.worker_id
    # consumer arrives after the only replica holder dies
    consumer = Task("consume").add_input(temp, "in")
    m.submit(consumer, duration=1.0)
    c.remove_worker(producer_worker, at=m.sim.now)
    m.run(finalize=False)
    assert consumer.state == TaskState.DONE
    assert producer.retries_used == 1  # it ran twice
    assert m.tasks_requeued >= 1


def test_deep_lineage_chain_regenerated():
    c = SimCluster()
    c.add_worker(cores=4, worker_id="w1")
    c.add_worker(cores=4, worker_id="w2")
    m = SimManager(c)
    a, b = m.declare_temp(), m.declare_temp()
    t1 = Task("s1").add_output(a, "out")
    t2 = Task("s2").add_input(a, "in").add_output(b, "out")
    m.submit(t1, duration=5.0, output_sizes={"out": MB})
    m.submit(t2, duration=5.0, output_sizes={"out": MB})
    m.run(finalize=False)
    # both intermediates lived on whichever worker ran the chain; kill it
    holder = t2.worker_id
    consumer = Task("final").add_input(b, "in")
    m.submit(consumer, duration=1.0)
    c.remove_worker(holder, at=m.sim.now)
    m.run(finalize=False)
    assert consumer.state == TaskState.DONE
