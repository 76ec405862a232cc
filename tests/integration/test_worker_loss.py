"""Real-runtime fault tolerance: worker processes dying mid-workflow."""

import time

import pytest

from repro.core.task import Task, TaskState
from tests.integration.conftest import Cluster


@pytest.fixture()
def cluster3(tmp_path):
    c = Cluster(tmp_path, n_workers=3)
    yield c
    c.stop()


def _proc_of_worker(cluster, manager, worker_id):
    """Map a manager-side worker id to its OS process via the workdir."""
    with manager._lock:
        workdir = manager.workers[worker_id].workdir
    for i, proc in enumerate(cluster.procs):
        if workdir and workdir.endswith(f"worker-w{i}"):
            return proc
    raise LookupError(f"no process found for {worker_id} ({workdir})")


def test_killed_worker_task_requeued_and_finishes(cluster3):
    m = cluster3.manager
    long_task = Task("sleep 3 && echo survived")
    long_task.max_retries = 2
    m.submit(long_task)
    cluster3.events.wait_task_state(long_task, TaskState.RUNNING, timeout=20)
    victim_wid = long_task.worker_id
    victim_proc = _proc_of_worker(cluster3, m, victim_wid)
    victim_proc.terminate()
    # the manager notices the departure (worker_leave in the log) and
    # requeues onto a survivor
    cluster3.events.wait_event(
        "worker_leave", lambda e: e.worker == victim_wid, timeout=20
    )
    m.run_until_done(timeout=120)
    assert long_task.state == TaskState.DONE
    assert "survived" in long_task.result.output
    assert long_task.worker_id != victim_wid
    assert long_task.retries_used >= 1


def test_replicas_dropped_when_worker_leaves(cluster3):
    m = cluster3.manager
    data = m.declare_buffer(b"spread me" * 100)
    tasks = [
        Task(f"cat d > /dev/null && echo {i}").add_input(data, "d")
        for i in range(6)
    ]
    for t in tasks:
        m.submit(t)
    m.run_until_done(timeout=120)
    with m._lock:
        holders_before = m.replicas.locate(data.cache_name)
    assert holders_before
    cluster3.procs[0].terminate()
    cluster3.events.wait_event("worker_leave", timeout=20)

    def departed():
        with m._lock:
            return len(m.workers) == 2

    cluster3.events.wait_for(departed, timeout=20, describe="worker removal")
    with m._lock:
        holders_after = m.replicas.locate(data.cache_name)
        live = set(m.workers)
    assert holders_after <= live


def test_heartbeats_keep_idle_workers_alive(tmp_path):
    """With a tight liveness timeout, heartbeats are the only traffic
    from an idle worker — it must not be reaped."""
    c = Cluster(tmp_path, n_workers=1, worker_liveness_timeout=12.0)
    try:
        m = c.manager
        # deliberately a bare sleep: the property under test is the
        # absence of a reap during a quiet interval longer than the
        # heartbeat period, so there is no event to wait on — time
        # passing IS the test condition
        time.sleep(8)  # > heartbeat interval, below the timeout
        with m._lock:
            assert len(m.workers) == 1
        t = Task("echo alive")
        m.submit(t)
        m.run_until_done(timeout=60)
        assert t.state == TaskState.DONE
    finally:
        c.stop()


def test_result_lost_between_task_done_and_send_back_reruns_the_task(tmp_path):
    """A worker reports a python task done, then dies before it sends
    the result back: the completion nothing backs is repeated on the
    next worker, not failed ("result file missing at worker")."""
    import threading

    from repro.core.manager import Manager
    from repro.core.task import PythonTask
    from repro.protocol.connection import ProtocolError
    from repro.protocol.messages import M
    from tests.integration.conftest import EventWaiter, _worker_main, _CTX
    from tests.integration.test_liveness_stub import _register_stub

    m = Manager()
    events = EventWaiter(m)
    conn = _register_stub(m, events)

    def dying_worker():
        try:
            while True:
                msg = conn.recv_message()
                if msg["type"] == M.PUT_FILE:
                    conn.recv_bytes(int(msg["size"]))
                    conn.send_message(
                        {
                            "type": M.CACHE_UPDATE,
                            "cache_name": msg["cache_name"],
                            "size": msg["size"],
                            "transfer_id": msg["transfer_id"],
                        }
                    )
                elif msg["type"] == M.EXECUTE:
                    (_sandbox, result_name, _level), = msg["outputs"]
                    conn.send_message(
                        {"type": M.CACHE_UPDATE, "cache_name": result_name, "size": 10}
                    )
                    conn.send_message(
                        {
                            "type": M.TASK_DONE,
                            "task_id": msg["task_id"],
                            "exit_code": 0,
                            "harvested": [result_name],
                        }
                    )
                elif msg["type"] == M.SEND_BACK:
                    return  # dies with the only copy of the result
        except (ProtocolError, OSError):
            pass
        finally:
            conn.close()

    stub = threading.Thread(target=dying_worker, daemon=True)
    stub.start()
    real = None
    try:
        task = PythonTask(len, "abc")
        m.submit(task)
        events.wait_event(
            "task_requeued", lambda e: e.category == "result_lost", timeout=20
        )
        assert task.state == TaskState.READY and task.retries_used == 1
        real = _CTX.Process(
            target=_worker_main,
            args=(m.host, m.port, str(tmp_path / "w"), 2, 500, 500),
        )
        real.start()
        done = m.wait(timeout=60)
        assert done is task and task.state == TaskState.DONE
        assert task.output() == 3 and task.retries_used == 1
        assert m.wait(timeout=0.2) is None  # delivered exactly once
    finally:
        m.close()
        stub.join(timeout=5)
        if real is not None:
            real.join(timeout=10)
            if real.is_alive():
                real.kill()
