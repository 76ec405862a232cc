"""Worker unit tests against a scripted (fake) manager connection."""

import json
import os
import threading
import time

import pytest

from repro.core.files import CacheLevel
from repro.protocol.connection import Connection, listen
from repro.protocol.messages import M, validate
from repro.worker.worker import Worker


class FakeManager:
    """Accepts one worker and records every message it sends."""

    def __init__(self):
        self.sock = listen()
        self.host, self.port = self.sock.getsockname()
        self.conn = None
        self.messages = []
        self._lock = threading.Lock()
        self._accepted = threading.Event()
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        s, _ = self.sock.accept()
        self.conn = Connection(s)
        self._accepted.set()
        try:
            while True:
                msg = self.conn.recv_message()
                validate(msg)
                payload = None
                if msg.get("type") == M.FILE_DATA and msg.get("found"):
                    payload = self.conn.recv_bytes(int(msg["size"]))
                with self._lock:
                    self.messages.append((msg, payload))
        except Exception:
            pass

    def wait_for(self, mtype, timeout=20.0, predicate=None):
        deadline = time.time() + timeout
        while time.time() < deadline:
            with self._lock:
                for msg, payload in self.messages:
                    if msg.get("type") == mtype and (
                        predicate is None or predicate(msg)
                    ):
                        return msg, payload
            time.sleep(0.02)
        raise TimeoutError(f"no {mtype} message arrived")

    def send(self, msg, payload=None):
        self._accepted.wait(10)
        self.conn.send_message(msg)
        if payload is not None:
            self.conn.send_bytes(payload)


@pytest.fixture()
def rig(tmp_path):
    fake = FakeManager()
    worker = Worker(
        fake.host, fake.port, str(tmp_path / "w"),
        cores=2, memory=1000, disk=1000, task_timeout=30.0,
    )
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    yield fake, worker
    worker.shutdown()


def test_register_reports_capacity_and_ports(rig):
    fake, worker = rig
    msg, _ = fake.wait_for(M.REGISTER)
    assert msg["capacity"]["cores"] == 2
    assert msg["transfer_port"] == worker._peer_server.port
    assert msg["cached"] == []


def test_put_file_then_cache_update(rig):
    fake, worker = rig
    fake.wait_for(M.REGISTER)
    data = b"pushed-bytes"
    fake.send(
        {
            "type": M.PUT_FILE,
            "cache_name": "obj-1",
            "size": len(data),
            "level": int(CacheLevel.WORKFLOW),
            "transfer_id": "x1",
        },
        data,
    )
    msg, _ = fake.wait_for(M.CACHE_UPDATE)
    assert msg["cache_name"] == "obj-1"
    assert msg["size"] == len(data)
    assert msg["transfer_id"] == "x1"
    assert worker.cache.has("obj-1")


def test_execute_round_trip(rig):
    fake, worker = rig
    fake.wait_for(M.REGISTER)
    data = b"shout"
    fake.send(
        {
            "type": M.PUT_FILE, "cache_name": "in-1", "size": len(data),
            "level": 1, "transfer_id": "x1",
        },
        data,
    )
    fake.wait_for(M.CACHE_UPDATE)
    fake.send(
        {
            "type": M.EXECUTE,
            "task_id": "t9",
            "command": "tr a-z A-Z < word > loud",
            "inputs": [["word", "in-1"]],
            "outputs": [["loud", "out-1", 1]],
            "env": {},
            "resources": {"cores": 1},
        }
    )
    done, _ = fake.wait_for(M.TASK_DONE)
    assert done["exit_code"] == 0
    assert worker.cache.has("out-1")
    with open(worker.cache.path_of("out-1"), "rb") as f:
        assert f.read() == b"SHOUT"


def test_a_wall_clock_step_during_a_task_does_not_inflate_its_staging_time(
    rig, monkeypatch
):
    """Staging is timed on the clock execution is timed on: stepping the
    wall clock an hour forward (an NTP correction, a resumed VM) while
    the command runs must not show up in the reported staging time."""
    fake, worker = rig
    fake.wait_for(M.REGISTER)
    fake.send(
        {
            "type": M.EXECUTE, "task_id": "t-step", "command": "sleep 0.3",
            "inputs": [], "outputs": [], "env": {}, "resources": {"cores": 1},
        }
    )
    deadline = time.monotonic() + 10.0
    while "t-step" not in worker._procs:  # the command is running
        assert time.monotonic() < deadline, "the task never started"
        time.sleep(0.005)
    wall = time.time
    monkeypatch.setattr(time, "time", lambda: wall() + 3600.0)
    done, _ = fake.wait_for(M.TASK_DONE)
    assert done["exit_code"] == 0
    assert 0.0 <= done["staging_time"] < 1.0, done["staging_time"]
    assert done["execution_time"] >= 0.3


def test_a_task_sent_again_while_it_runs_is_answered_by_the_attempt_at_it(rig):
    """A restarted manager re-sends what its previous life had running
    here; two attempts cannot share ``sandbox-<id>``, so the one at
    work answers for both — one report, and it is the first one's."""
    fake, worker = rig
    fake.wait_for(M.REGISTER)
    execute = {
        "type": M.EXECUTE, "task_id": "t4", "command": "sleep 0.5; echo once > out",
        "inputs": [], "outputs": [["out", "out-4", 1]],
        "env": {}, "resources": {"cores": 1},
    }
    fake.send(execute)
    deadline = time.time() + 10
    while "t4" not in worker._procs and time.time() < deadline:
        time.sleep(0.01)
    fake.send(execute)
    done, _ = fake.wait_for(M.TASK_DONE)
    assert done["exit_code"] == 0 and done.get("failure") is None
    time.sleep(0.3)  # a second report would have arrived by now
    with fake._lock:
        reports = [m for m, _ in fake.messages if m.get("type") == M.TASK_DONE]
    assert len(reports) == 1 and not worker._executing
    with open(worker.cache.path_of("out-4"), "rb") as f:
        assert f.read() == b"once\n"


def test_fetch_failure_reports_cache_invalid(rig):
    fake, worker = rig
    fake.wait_for(M.REGISTER)
    fake.send(
        {
            "type": M.FETCH_FILE,
            "cache_name": "ghost",
            "source": {"kind": "url", "url": "file:///nonexistent/path"},
            "transfer_id": "x7",
            "level": 1,
        }
    )
    msg, _ = fake.wait_for(M.CACHE_INVALID)
    assert msg["cache_name"] == "ghost"
    assert msg["transfer_id"] == "x7"
    assert "missing" in msg["reason"]


def test_send_back_missing_object(rig):
    fake, worker = rig
    fake.wait_for(M.REGISTER)
    fake.send({"type": M.SEND_BACK, "cache_name": "never-was"})
    msg, payload = fake.wait_for(M.FILE_DATA)
    assert msg["found"] is False
    assert payload is None


def test_send_back_of_an_object_gone_from_disk_answers_not_found(rig):
    """An eviction on a handler thread can remove an object's file while
    its cache entry is still looked up: the worker answers ``found:
    false`` and goes on taking commands."""
    fake, worker = rig
    fake.wait_for(M.REGISTER)
    worker.cache.insert_bytes(b"x", "vanished", CacheLevel.WORKFLOW)
    os.unlink(worker.cache.path_of("vanished"))
    fake.send({"type": M.SEND_BACK, "cache_name": "vanished"})
    msg, payload = fake.wait_for(M.FILE_DATA, timeout=10.0)
    assert msg["found"] is False
    assert payload is None
    fake.send(
        {
            "type": M.EXECUTE, "task_id": "t1", "command": "echo ok > out",
            "inputs": [], "outputs": [["out", "out-1", 1]],
            "env": {}, "resources": {"cores": 1},
        }
    )
    done, _ = fake.wait_for(M.TASK_DONE, timeout=10.0)
    assert done["exit_code"] == 0


def test_send_back_streams_a_file_and_a_directory(rig):
    fake, worker = rig
    fake.wait_for(M.REGISTER)
    worker.cache.insert_bytes(b"file-bytes", "a-file", CacheLevel.WORKFLOW)
    fake.send({"type": M.SEND_BACK, "cache_name": "a-file"})
    msg, payload = fake.wait_for(M.FILE_DATA)
    assert (msg["found"], msg["format"], payload) == (True, "file", b"file-bytes")
    tree = worker.cache.staging_path("a-dir")
    os.makedirs(tree)
    with open(os.path.join(tree, "leaf"), "wb") as f:
        f.write(b"leaf-bytes")
    worker.cache.insert_from(tree, "a-dir", CacheLevel.WORKFLOW, time.time())
    fake.send({"type": M.SEND_BACK, "cache_name": "a-dir"})
    msg, payload = fake.wait_for(
        M.FILE_DATA, predicate=lambda m: m["cache_name"] == "a-dir"
    )
    assert msg["found"] and msg["format"] == "tar"
    assert len(payload) == msg["size"] > 0
    worker.cache.insert_bytes(b"", "empty", CacheLevel.WORKFLOW)  # `touch out`
    fake.send({"type": M.SEND_BACK, "cache_name": "empty"})
    msg, payload = fake.wait_for(
        M.FILE_DATA, predicate=lambda m: m["cache_name"] == "empty"
    )
    assert (msg["found"], msg["size"], payload) == (True, 0, b"")
    fake.send(
        {
            "type": M.EXECUTE, "task_id": "t1", "command": "echo ok > out",
            "inputs": [], "outputs": [["out", "out-1", 1]],
            "env": {}, "resources": {"cores": 1},
        }
    )
    done, _ = fake.wait_for(M.TASK_DONE, timeout=10.0)
    assert done["exit_code"] == 0


def test_a_lost_eviction_report_does_not_report_the_task_again(tmp_path):
    """The link can drop between a ``task_done`` and the ``cache_invalid``
    of the eviction it triggers: the task stays reported once, as done."""
    fake = FakeManager()
    worker = Worker(
        fake.host, fake.port, str(tmp_path / "w"), cores=1,
        max_cache_bytes=4, eviction_grace=0.0,
    )
    threading.Thread(target=worker.run, daemon=True).start()
    try:
        fake.wait_for(M.REGISTER)
        worker.cache.insert_bytes(b"old-bytes", "old", CacheLevel.WORKFLOW)
        send = worker._sender.send

        def link_drops_after_task_done(message, payload=None):
            if message["type"] == M.CACHE_INVALID:
                raise OSError("connection reset")
            send(message, payload)

        worker._sender.send = link_drops_after_task_done
        fake.send(
            {
                "type": M.EXECUTE, "task_id": "t1", "command": "echo ok > out",
                "inputs": [], "outputs": [["out", "out-1", 1]],
                "env": {}, "resources": {"cores": 1},
            }
        )
        done, _ = fake.wait_for(M.TASK_DONE, timeout=10.0)
        assert done["exit_code"] == 0
        deadline = time.time() + 10
        while worker.cache.has("old") and time.time() < deadline:
            time.sleep(0.02)
        assert not worker.cache.has("old")  # evicted, its report lost
        time.sleep(0.3)  # a second report would have arrived by now
        with fake._lock:
            reports = [m for m, _ in fake.messages if m["type"] == M.TASK_DONE]
        assert len(reports) == 1
    finally:
        worker.shutdown()


def test_an_idle_worker_owns_only_its_clock_and_peer_accept_threads(tmp_path):
    """Every message leaves as it is produced and one clock beats and
    dumps metrics, so an idle worker runs two threads of its own."""
    fake = FakeManager()
    baseline = set(threading.enumerate())
    worker = Worker(fake.host, fake.port, str(tmp_path / "w"), cores=1)
    runner = threading.Thread(target=worker.run, daemon=True)
    runner.start()
    try:
        fake.wait_for(M.REGISTER)
        owned = set(threading.enumerate()) - baseline - {runner}
        assert owned == {worker._clock, worker._peer_server._thread}, sorted(
            t.name for t in owned
        )
    finally:
        worker.shutdown()
    runner.join(timeout=5)
    assert not runner.is_alive() and not worker._clock.is_alive()


def test_shutdown_writes_the_final_metrics(tmp_path):
    fake = FakeManager()
    worker = Worker(fake.host, fake.port, str(tmp_path / "w"), cores=1)
    threading.Thread(target=worker.run, daemon=True).start()
    fake.wait_for(M.REGISTER)
    fake.send(
        {
            "type": M.FETCH_FILE, "cache_name": "ghost",
            "source": {"kind": "url", "url": "file:///nonexistent/path"},
            "transfer_id": "x1", "level": 1,
        }
    )
    fake.wait_for(M.CACHE_INVALID)
    worker.shutdown()
    with open(tmp_path / "w" / "metrics.json") as f:
        metrics = json.load(f)["metrics"]
    assert metrics["fetch.failures"]["value"] == 1
    assert metrics["net.frames_out"]["value"] >= 2  # register, cache_invalid


def test_unlink_removes_object(rig):
    fake, worker = rig
    fake.wait_for(M.REGISTER)
    worker.cache.insert_bytes(b"x", "gone-soon", CacheLevel.WORKFLOW)
    fake.send({"type": M.UNLINK, "cache_names": ["gone-soon"]})
    deadline = time.time() + 10
    while worker.cache.has("gone-soon") and time.time() < deadline:
        time.sleep(0.02)
    assert not worker.cache.has("gone-soon")


def test_stage_minitask_round_trip(rig):
    fake, worker = rig
    fake.wait_for(M.REGISTER)
    fake.send(
        {
            "type": M.PUT_FILE, "cache_name": "tar-1", "size": 3,
            "level": 1, "transfer_id": "x1",
        },
        b"abc",
    )
    fake.wait_for(M.CACHE_UPDATE)
    fake.send(
        {
            "type": M.STAGE_MINITASK,
            "cache_name": "staged-1",
            "spec": {
                "command": "rev < input > output",
                "inputs": [["input", "tar-1"]],
                "output_name": "output",
                "env": {},
                "resources": {"cores": 1},
            },
            "level": 1,
            "transfer_id": "x2",
        }
    )
    msg, _ = fake.wait_for(
        M.CACHE_UPDATE, predicate=lambda m: m["cache_name"] == "staged-1"
    )
    assert msg["transfer_id"] == "x2"
    with open(worker.cache.path_of("staged-1"), "rb") as f:
        assert f.read().strip() == b"cba"
