"""End-to-end tests of worker-side cache-pressure eviction.

The worker enforces an admission bound on its object cache: exceeding
it evicts least-valuable unpinned objects (inputs of in-flight work are
pinned), and every eviction is reported with a ``cache-invalid`` so the
manager's replica table stays truthful.  If an eviction races a
dispatch, the manager requeues the task and replans its transfers.
"""

import multiprocessing as mp

import pytest

from repro.core.manager import Manager
from repro.core.resources import Resources
from repro.core.task import Task, TaskState
from tests.integration.conftest import EventWaiter
from tests.reactor_owner import on_reactor

_CTX = mp.get_context("spawn")


def _bounded_worker(host, port, workdir, max_cache_bytes):
    from repro.worker.worker import Worker

    Worker(
        host, port, workdir, cores=4, memory=2000, disk=2000,
        task_timeout=120.0, max_cache_bytes=max_cache_bytes,
        eviction_grace=2.0,
    ).run()


@pytest.fixture()
def bounded_cluster(tmp_path):
    m = Manager()
    m.events = EventWaiter(m)
    proc = _CTX.Process(
        target=_bounded_worker,
        args=(m.host, m.port, str(tmp_path / "w"), 600_000),  # 600 KB cache
    )
    proc.start()

    def admitted():
        return on_reactor(m, lambda: bool(m.workers))

    m.events.wait_for(admitted, timeout=30, describe="worker admission")
    yield m
    m.close(shutdown_workers=True)
    proc.join(timeout=10)
    if proc.is_alive():
        proc.terminate()


def test_cache_pressure_evicts_and_informs_manager(bounded_cluster):
    m = bounded_cluster
    # three 300 KB inputs, used strictly serially (4-core tasks), so
    # each insertion beyond the second forces an eviction of an earlier,
    # no-longer-pinned input
    blobs = [m.declare_buffer(bytes([65 + i]) * 300_000) for i in range(3)]
    tasks = []
    for i, blob in enumerate(blobs):
        t = Task(f"wc -c < data{i} && sleep 3").set_resources(Resources(cores=4))
        t.max_retries = 3
        t.add_input(blob, f"data{i}")
        tasks.append(t)
        m.submit(t)
    m.run_until_done(timeout=120)
    assert all(t.state == TaskState.DONE for t in tasks)
    assert all("300000" in t.result.output for t in tasks)
    wid = next(iter(m.workers))

    def _held():
        return on_reactor(m, lambda: [
            b.cache_name for b in blobs
            if m.replicas.has_replica(b.cache_name, wid)
        ])

    # trailing cache-invalid messages are still in flight when the last
    # task finishes; wait on the replica table reflecting the eviction
    # (woken by the file_deleted events) rather than sleeping
    m.events.wait_for(
        lambda: len(_held()) <= 2, timeout=20, describe="eviction visible"
    )
    assert len(_held()) <= 2  # the bound cannot hold all three


def test_pinning_protects_running_tasks_under_pressure(bounded_cluster):
    m = bounded_cluster
    # a long task holds a+b (500 KB pinned); a third input arriving for
    # the queued task pushes the cache over its 600 KB bound — eviction
    # must victimize something unpinned, and any raced dispatch retries
    a = m.declare_buffer(b"a" * 250_000)
    b = m.declare_buffer(b"b" * 250_000)
    c = m.declare_buffer(b"c" * 250_000)
    holder = Task("cat x y | wc -c && sleep 1").set_resources(Resources(cores=1))
    holder.add_input(a, "x")
    holder.add_input(b, "y")
    follower = Task("wc -c < z").set_resources(Resources(cores=1))
    follower.max_retries = 3
    follower.add_input(c, "z")
    m.submit(holder)
    m.submit(follower)
    m.run_until_done(timeout=120)
    assert holder.state == TaskState.DONE
    assert "500000" in holder.result.output
    assert follower.state == TaskState.DONE
    assert "250000" in follower.result.output
