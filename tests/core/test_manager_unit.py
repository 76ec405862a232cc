"""Unit tests for Manager behaviour that needs no worker processes."""


import pytest

import os
import socket
import threading
import time

from repro.core.files import CacheLevel
from repro.core.library import FunctionCall
from repro.core.manager import Manager, ManagerError, _ClientSession
from repro.core.task import PythonTask, Task
from repro.core.transfer_table import MANAGER_SOURCE


@pytest.fixture()
def manager():
    m = Manager()
    yield m
    m.close()


def test_listens_on_localhost(manager):
    assert manager.host == "127.0.0.1"
    assert manager.port > 0


def test_declare_buffer_names_and_sizes(manager):
    f = manager.declare_buffer(b"payload")
    assert f.cache_name.startswith("buffer-md5-")
    assert manager.sizes[f.cache_name] == 7
    assert manager.fixed_sources[f.cache_name] == MANAGER_SOURCE


def test_declare_local_file_and_dir(manager, tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"ab" * 500)
    f = manager.declare_local(str(p))
    assert manager.sizes[f.cache_name] == 1000
    d = tmp_path / "tree"
    d.mkdir()
    (d / "member").write_bytes(b"xyz")
    fd = manager.declare_local(str(d), cache="worker")
    assert fd.cache_name.startswith("dir-md5-")
    assert manager.sizes[fd.cache_name] == 3


def test_declare_local_worker_level_content_named(manager, tmp_path):
    p = tmp_path / "data"
    p.write_bytes(b"stable content")
    f1 = manager.declare_local(str(p), cache="worker")
    m2 = Manager()
    try:
        f2 = m2.declare_local(str(p), cache="worker")
        assert f1.cache_name == f2.cache_name
    finally:
        m2.close()


def test_declare_url_sets_host_source(manager, tmp_path):
    p = tmp_path / "remote.bin"
    p.write_bytes(b"remote")
    f = manager.declare_url(f"file://{p}")
    assert manager.fixed_sources[f.cache_name] == "url:localfs"
    assert manager.sizes[f.cache_name] == 6


def test_declare_url_worker_level_uses_stat_headers(manager, tmp_path):
    p = tmp_path / "remote.bin"
    p.write_bytes(b"remote")
    f = manager.declare_url(f"file://{p}", cache="worker")
    assert f.cache_name.startswith("url-meta-")
    # touching content changes the derived name for a fresh manager
    p.write_bytes(b"remote2!")
    m2 = Manager()
    try:
        f2 = m2.declare_url(f"file://{p}", cache="worker")
        assert f2.cache_name != f.cache_name
    finally:
        m2.close()


def test_declare_untar_builds_minitask(manager, tmp_path):
    p = tmp_path / "pkg.tar"
    p.write_bytes(b"not really a tar")
    tarball = manager.declare_local(str(p))
    env = manager.declare_untar(tarball)
    assert env.cache_name.startswith("task-md5-")
    assert manager.fixed_sources[env.cache_name] == "@minitask"
    assert env.mini_task.inputs[0][1] is tarball


def test_minitask_with_undeclared_input_rejected(manager):
    from repro.core.files import BufferFile
    from repro.core.task import MiniTask

    mini = MiniTask("cmd").add_input(BufferFile(b"x"), "in")
    with pytest.raises(ManagerError):
        manager.declare_minitask(mini)


def test_submit_undeclared_input_rejected(manager):
    from repro.core.files import BufferFile

    t = Task("cmd").add_input(BufferFile(b"x"), "in")
    with pytest.raises(ManagerError):
        manager.submit(t)
    assert manager.empty()


def test_submit_twice_rejected(manager):
    t = Task("cmd")
    manager.submit(t)
    with pytest.raises(ManagerError):
        manager.submit(t)


def test_a_refused_python_task_is_prepared_once_and_may_come_back(manager):
    # its payload and result files are attached before the plane decides
    manager.set_tenant_quota("default", task_quota=1)
    manager.submit(Task("first"))
    t = PythonTask(len, "abc")
    with pytest.raises(ManagerError, match="quota"):
        manager.submit(t)
    manager.set_tenant_quota("default", task_quota=2)
    manager.submit(t)
    assert [n for n, _ in t.inputs] == [t.PAYLOAD_NAME]
    assert [n for n, _ in t.outputs] == [t.RESULT_NAME]
    with pytest.raises(ManagerError, match="already submitted"):
        manager.submit(t)
    assert len(t.inputs) == len(t.outputs) == 1


def test_function_call_requires_known_library(manager):
    with pytest.raises(ManagerError):
        manager.submit(FunctionCall("ghost", "fn"))


def test_create_library_twice_rejected(manager):
    manager.create_library("lib", [len])
    with pytest.raises(ManagerError):
        manager.create_library("lib", [len])


def test_python_task_gets_payload_and_result_files(manager):
    t = PythonTask(len, [1, 2])
    manager.submit(t)
    names = [n for n, _ in t.inputs]
    assert PythonTask.PAYLOAD_NAME in names
    assert t.outputs[-1][0] == PythonTask.RESULT_NAME
    # payload is task-lifetime: collected as soon as the task is done
    payload_file = dict(t.inputs)[PythonTask.PAYLOAD_NAME]
    assert payload_file.cache_level == CacheLevel.TASK


def test_wait_timeout_and_empty(manager):
    assert manager.empty()
    assert manager.wait(timeout=0.05) is None
    t = Task("cmd")
    manager.submit(t)  # no workers: stays outstanding
    assert not manager.empty()


def test_fetch_bytes_of_buffer_and_local(manager, tmp_path):
    b = manager.declare_buffer(b"direct")
    assert manager.fetch_bytes(b) == b"direct"
    p = tmp_path / "f"
    p.write_bytes(b"from disk")
    f = manager.declare_local(str(p))
    assert manager.fetch_bytes(f) == b"from disk"


def test_fetch_bytes_without_replica_raises(manager):
    temp = manager.declare_temp()
    with pytest.raises(ManagerError, match="no worker holds"):
        manager.fetch_bytes(temp)


def test_close_idempotent(manager):
    manager.close()
    manager.close()


def test_context_manager():
    with Manager() as m:
        m.declare_buffer(b"x")
    assert m._closed


def test_failed_bind_leaves_nothing_behind(manager, tmp_path):
    """The daemon retries on another port when its prior one is taken;
    the abandoned attempt must not leave a metrics-dumper thread racing
    the real manager's, an open txn log, or a journal directory."""
    paths = [tmp_path / "journal", tmp_path / "txn.jsonl", tmp_path / "metrics.json"]
    before = set(threading.enumerate())
    with pytest.raises(OSError):
        Manager(
            port=manager.port,  # occupied by the fixture's manager
            journal_dir=str(paths[0]),
            txn_log_path=str(paths[1]),
            metrics_dump_path=str(paths[2]),
        )
    assert set(threading.enumerate()) == before
    assert not [p.name for p in paths if p.exists()]


def test_run_until_done_times_out_without_workers(manager):
    manager.submit(Task("cmd"))
    with pytest.raises(ManagerError, match="did not finish"):
        manager.run_until_done(timeout=0.3)


def test_wake_reactor_never_blocks_on_a_full_pipe(manager):
    """Wakers hold the state lock the reactor needs before it can drain
    the wake pipe, so a full pipe must read as "a wake is pending"."""
    with manager._lock:  # the reactor stalls at the end of its sweep
        try:
            while True:
                manager.reactor._wake_w.send(b"\0" * 65536, socket.MSG_DONTWAIT)
        except BlockingIOError:
            pass
        waker = threading.Thread(target=manager.reactor.wake, daemon=True)
        waker.start()
        waker.join(timeout=2.0)
        assert not waker.is_alive()
    # the pending wakes still serve their purpose once the lock is free
    manager.submit(Task("cmd"))
    deadline = time.monotonic() + 5.0
    while manager._pump_wanted and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not manager._pump_wanted


# -- client-session hygiene (service mode) ---------------------------


def test_client_local_paths_resolve_inside_the_configured_root(tmp_path):
    root = tmp_path / "exports"
    root.mkdir()
    inside = root / "data.txt"
    inside.write_text("ok")
    link = root / "link"
    link.symlink_to("/etc")
    with Manager(client_local_root=str(root)) as m:
        svc = m.service
        sess = _ClientSession("alice")
        real = os.path.realpath(str(inside))
        assert svc._local_path(sess, "data.txt") == real
        assert svc._local_path(sess, str(inside)) == real
        with pytest.raises(ManagerError, match="outside"):
            svc._local_path(sess, "../escape")
        with pytest.raises(ManagerError, match="outside"):
            svc._local_path(sess, "/etc/passwd")
        # symlinks are resolved before the containment check
        with pytest.raises(ManagerError, match="outside"):
            svc._local_path(sess, "link/passwd")
        # the loopback session is the in-process application: unrestricted
        assert svc._local_path(svc.loopback, "/etc/passwd") == "/etc/passwd"


def test_client_local_paths_disabled_without_a_root(manager):
    with pytest.raises(ManagerError, match="client_local_root"):
        manager.service._local_path(_ClientSession("alice"), "/etc/passwd")


def test_detached_session_notice_buffer_is_capped(manager):
    svc = manager.service
    sess = _ClientSession("alice")
    svc.sessions[sess.token] = sess
    cap = _ClientSession.MAX_BUFFERED
    for i in range(cap + 5):
        svc._notify(sess, {"type": "task_result", "task_id": f"t{i}"})
    assert len(sess.buffered) == cap
    assert sess.dropped == 5
    # the oldest notices are the ones evicted
    assert sess.buffered[0]["task_id"] == "t5"


def test_idle_detached_sessions_are_reaped(manager):
    svc = manager.service
    idle = _ClientSession("alice")
    idle.detached_at = 1000.0
    svc.sessions[idle.token] = idle
    busy = _ClientSession("bob")
    busy.detached_at = 1000.0
    busy.tasks.add("t1")  # outstanding work: never reaped
    svc.sessions[busy.token] = busy
    reaped = manager._reap_sessions(1000.0 + manager.client_session_ttl + 1)
    assert reaped == [idle.session_id]
    assert idle.token not in svc.sessions and busy.token in svc.sessions
    expired = list(manager.log.events("client_expired"))
    assert expired and expired[0].category == "alice"
