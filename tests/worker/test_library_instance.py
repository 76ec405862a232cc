"""Tests for the resident library instance and the pytask runner."""

import os
import subprocess
import sys

import pytest

from repro.protocol import serialization as ser
from repro.worker import pytask_runner
from repro.worker.library_instance import (
    LibraryError,
    LibraryInstanceHandle,
    build_payload,
    pack_invocation,
    unpack_result,
)
from tests.procgroup import live_members


def _square(x):
    return x * x


def _fail(msg):
    raise ValueError(msg)


@pytest.fixture()
def instance():
    handle = LibraryInstanceHandle(
        "testlib", build_payload({"square": _square, "fail": _fail})
    )
    yield handle
    handle.stop()


def _call(handle, tmp_path, invocation_id, function, *args):
    """Invoke and wait; ``(ok, envelope bytes, traceback)``."""
    staging = str(tmp_path / f"{invocation_id}.bin")
    handle.invoke(invocation_id, function, pack_invocation(args, {}), staging)
    ok, size, tb = handle.wait(invocation_id, timeout=30)
    with open(staging, "rb") as f:
        blob = f.read()
    assert len(blob) == size
    return ok, blob, tb


def test_instance_announces_functions(instance):
    assert instance.functions == ["fail", "square"]
    assert instance.alive()


def test_invoke_and_wait(instance, tmp_path):
    ok, blob, tb = _call(instance, tmp_path, "i1", "square", 7)
    assert ok and tb == ""
    assert unpack_result(blob) == 49


def test_concurrent_invocations(instance, tmp_path):
    for i in range(4):
        instance.invoke(
            f"i{i}", "square", pack_invocation((i,), {}), str(tmp_path / f"r{i}")
        )
    for i in range(4):
        assert instance.wait(f"i{i}", timeout=30)[0]
    results = [unpack_result((tmp_path / f"r{i}").read_bytes()) for i in range(4)]
    assert results == [0, 1, 4, 9]


def test_many_threads_share_one_instance_without_crossed_replies(instance, tmp_path):
    """Waiters and the reply collector share the handle's tables: more
    invoking threads than cores, a shortened switch interval, and every
    thread must get exactly its own results back."""
    import threading

    wrong = []

    def caller(k):
        for i in range(15):
            n = 1000 * k + i
            ok, blob, _tb = _call(instance, tmp_path, f"t{k}-{i}", "square", n)
            if not ok or unpack_result(blob) != n * n:
                wrong.append((k, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert instance._waiters == {} and instance._done == {}


def test_remote_exception_reraised(instance, tmp_path):
    ok, blob, tb = _call(instance, tmp_path, "bad", "fail", "boom")
    assert not ok
    assert "ValueError: boom" in tb
    with pytest.raises(ValueError, match="boom"):
        unpack_result(blob)


def test_unknown_function_rejected_locally(instance, tmp_path):
    with pytest.raises(LibraryError):
        instance.invoke("x", "nope", pack_invocation((), {}), str(tmp_path / "x"))


def test_stop_terminates_process(instance, tmp_path):
    instance.stop()
    assert not instance.alive()
    with pytest.raises(LibraryError):
        instance.invoke("late", "square", pack_invocation((1,), {}), str(tmp_path / "l"))


def test_broken_payload_raises():
    with pytest.raises(LibraryError):
        LibraryInstanceHandle("broken", b"not a pickle")


def test_function_state_loaded_once(tmp_path):
    """Initialization happens in the instance, not per invocation."""
    def probe():
        return os.getpid()

    handle = LibraryInstanceHandle("pids", build_payload({"probe": probe}))
    try:
        pid_a = unpack_result(_call(handle, tmp_path, "a", "probe")[1])
        pid_b = unpack_result(_call(handle, tmp_path, "b", "probe")[1])
        # forked per invocation: distinct pids, neither the worker's
        # nor the instance's
        assert len({pid_a, pid_b, os.getpid(), handle.pid}) == 4
    finally:
        handle.stop()


def test_invocation_that_dies_without_answering_is_reported(tmp_path):
    """The instance reaps its forks: one that was killed (or crashed the
    interpreter) before it could reply fails its call within the reap
    interval instead of holding the slot until the call times out."""
    def die():
        os.kill(os.getpid(), 9)

    handle = LibraryInstanceHandle("dies", build_payload({"die": die}))
    try:
        handle.invoke("d", "die", pack_invocation((), {}), str(tmp_path / "d"))
        ok, size, tb = handle.wait("d", timeout=30)
        assert not ok and size == 0
        assert "wait status 9" in tb
        assert handle.alive()
    finally:
        handle.stop()


def test_killed_instance_fails_waiters_and_takes_its_forks(tmp_path):
    import signal
    import time

    def stall():
        time.sleep(60)

    handle = LibraryInstanceHandle("stall", build_payload({"stall": stall}))
    try:
        handle.invoke("s", "stall", pack_invocation((), {}), str(tmp_path / "s"))
        deadline = time.monotonic() + 5.0
        while len(live_members(handle.pid)) < 2 and time.monotonic() < deadline:
            time.sleep(0.02)
        os.kill(handle.pid, signal.SIGKILL)
        started = time.monotonic()
        with pytest.raises(LibraryError, match="died"):
            handle.wait("s", timeout=30)
        assert time.monotonic() - started < 5.0
        while live_members(handle.pid) and time.monotonic() - started < 5.0:
            time.sleep(0.02)  # SIGKILL is sent, not yet delivered
        assert live_members(handle.pid) == []
    finally:
        handle.stop()


def test_instance_holds_nothing_of_the_worker_but_pipes_and_stdio(tmp_path):
    """Whatever the worker has open when it forks the instance — sockets,
    logs, a task's output pipe — the instance closes at once."""
    import socket

    held = [open(tmp_path / "log", "w"), socket.socket(), *os.pipe()]
    handle = LibraryInstanceHandle("fds", build_payload({"square": _square}))
    try:
        fd_dir = f"/proc/{handle.pid}/fd"
        fds = {int(n): os.readlink(f"{fd_dir}/{n}") for n in os.listdir(fd_dir)}
        extra = {fd: target for fd, target in fds.items() if fd > 2}
        assert set(fds) - set(extra) == {0, 1, 2}
        assert len(extra) == 2  # its command and reply pipe ends
        assert all(target.startswith("pipe:") for target in extra.values())
        # and what an invocation fork sees is that set minus the
        # command pipe, plus whatever it opens itself
        assert _call(handle, tmp_path, "q", "square", 3)[0]
    finally:
        handle.stop()
        for f in held:
            os.close(f) if isinstance(f, int) else f.close()


def test_piped_command_does_not_stall_while_instances_are_forked(tmp_path):
    """Regression: ``run_command`` reads its child's output to
    end-of-file; an instance forked between the pipe's creation and the
    parent closing its write end used to inherit that end and hold the
    read open for as long as it lived, leaving the task RUNNING until
    ``task_timeout``."""
    import threading

    from repro.core.resources import Resources
    from repro.worker.executor import run_command

    payload = build_payload({"square": _square})
    outcomes = []
    installing = threading.Event()

    def tasks():
        while not installing.is_set() or len(outcomes) < 10:
            outcomes.append(
                run_command("echo out", str(tmp_path), {}, Resources(cores=1), timeout=20)
            )

    runner = threading.Thread(target=tasks)
    runner.start()
    handles = []
    try:
        for i in range(50):
            handles.append(LibraryInstanceHandle(f"lib{i}", payload))
        installing.set()
        runner.join(timeout=60)
        assert not runner.is_alive(), "a piped task never saw end-of-file"
        assert all(o.exit_code == 0 and o.output == "out\n" for o in outcomes)
        assert max(o.execution_time for o in outcomes) < 10.0
    finally:
        installing.set()
        for handle in handles:
            handle.stop()
        runner.join(timeout=30)


_HOST_WORKER = """
import sys, time
from repro.worker.library_instance import (
    LibraryInstanceHandle, build_payload, pack_invocation,
)

def stall():
    time.sleep(60)

handle = LibraryInstanceHandle("stall", build_payload({"stall": stall}))
handle.invoke("a", "stall", pack_invocation((), {}), sys.argv[1])
print(handle.pid, flush=True)
time.sleep(60)
"""


def test_instance_and_its_forks_do_not_outlive_a_killed_worker(tmp_path):
    """A SIGKILLed worker cannot stop its instance, and the instance is
    in a process group of its own, beyond whatever reaps the worker's:
    it must notice the orphaning and take its invocation forks with it."""
    import signal
    import time

    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    host = subprocess.Popen(
        [sys.executable, "-c", _HOST_WORKER, str(tmp_path / "a.bin")],
        stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
    )
    try:
        pgid = int(host.stdout.readline())
        assert pgid != os.getpgrp()
        deadline = time.monotonic() + 5.0
        while len(live_members(pgid)) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)  # the instance and its stalled fork
        assert len(live_members(pgid)) == 2
    finally:
        host.kill()
        host.wait()
    deadline = time.monotonic() + 5.0
    while live_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    try:
        assert live_members(pgid) == []
    finally:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass


# -- pytask runner -----------------------------------------------------------


def _write_payload(path, func, *args, **kwargs):
    # the runner expects the portable envelope the manager produces
    with open(path, "wb") as f:
        f.write(ser.dumps_portable({"func": func, "args": args, "kwargs": kwargs}))


def test_pytask_runner_success(tmp_path):
    payload = tmp_path / "p.bin"
    result = tmp_path / "r.bin"
    _write_payload(payload, _square, 6)
    code = pytask_runner.main([str(payload), str(result)])
    assert code == 0
    out = ser.loads(result.read_bytes())
    assert out == {"ok": True, "value": 36}


def test_pytask_runner_exception(tmp_path):
    payload = tmp_path / "p.bin"
    result = tmp_path / "r.bin"
    _write_payload(payload, _fail, "nope")
    code = pytask_runner.main([str(payload), str(result)])
    assert code == 1
    out = ser.loads(result.read_bytes())
    assert out["ok"] is False
    assert isinstance(out["error"], ValueError)
    assert "nope" in out["traceback"]


def test_pytask_runner_bad_usage(tmp_path):
    assert pytask_runner.main([]) == 2
    assert pytask_runner.main([str(tmp_path / "missing"), "out"]) == 2


def test_pytask_runner_as_subprocess(tmp_path):
    """End to end through the real command line, as a task would run it."""
    payload = tmp_path / "p.bin"
    result = tmp_path / "r.bin"
    _write_payload(payload, _square, 9)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.worker.pytask_runner", str(payload), str(result)],
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert ser.loads(result.read_bytes())["value"] == 81


def test_pytask_runner_unserializable_result(tmp_path):
    def returns_socket():
        import socket

        return socket.socket()

    payload = tmp_path / "p.bin"
    result = tmp_path / "r.bin"
    _write_payload(payload, returns_socket)
    code = pytask_runner.main([str(payload), str(result)])
    assert code == 0
    out = ser.loads(result.read_bytes())
    assert out.get("unserializable") is True
    assert "socket" in out["value"]
