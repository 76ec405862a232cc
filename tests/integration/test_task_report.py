"""What the real manager takes from a worker's ``task_done``.

A raw-socket worker stands in for the real one, so the test decides
exactly what each report says: the outputs an attempt left ride its
report, and become replicas only when the attempt stands.
"""

import threading

from repro.core.manager import Manager
from repro.core.resources import Resources
from repro.core.task import Task, TaskState
from repro.protocol.connection import ProtocolError
from repro.protocol.messages import M
from tests.integration.conftest import EventWaiter
from tests.integration.test_liveness_stub import _register_stub
from tests.reactor_owner import on_reactor


def test_a_resource_exceeded_retry_leaves_no_replica_of_the_first_attempt():
    m = Manager()
    events = EventWaiter(m)
    conn = _register_stub(m, events)
    received = []  # (type, cache name) of every command, in wire order

    def worker():
        try:
            while True:
                msg = conn.recv_message()
                if msg["type"] == M.UNLINK:
                    (unlinked,) = msg["cache_names"]
                    received.append((M.UNLINK, unlinked))
                elif msg["type"] == M.EXECUTE:
                    (_sandbox, name, _level), = msg["outputs"]
                    first = not received
                    received.append((M.EXECUTE, name))
                    conn.send_message(
                        {
                            "type": M.TASK_DONE,
                            "task_id": msg["task_id"],
                            "exit_code": 137 if first else 0,
                            "exceeded": ["memory"] if first else [],
                            # a partial output, then the whole one
                            "outputs": [[name, 4 if first else 6]],
                        }
                    )
        except (ProtocolError, OSError):
            pass
        finally:
            conn.close()

    stub = threading.Thread(target=worker, daemon=True)
    stub.start()
    try:
        out = m.declare_temp()
        task = Task("hog").add_output(out, "part")
        task.set_resources(Resources(cores=1, memory=100))
        m.submit(task)
        assert m.wait(timeout=20) is task
        assert task.state == TaskState.DONE and task.retries_used == 1
        (requeued,) = m.log.events("task_requeued")
        assert requeued.category == "resources"
        name = out.cache_name
        # told to drop the partial output before it was sent the retry
        assert received == [(M.EXECUTE, name), (M.UNLINK, name), (M.EXECUTE, name)]
        # and only the attempt that stood left a replica
        cached = [e for e in m.log.events("file_cached") if e.file == name]
        assert [(e.worker, e.size) for e in cached] == [(task.worker_id, 6)]
        assert on_reactor(m, m.control.replicas.locate, name) == {task.worker_id}
    finally:
        m.close()
        stub.join(timeout=5)
    assert not stub.is_alive()
