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
        "testlib", build_payload({"square": _square, "fail": _fail}), function_slots=2
    )
    yield handle
    handle.stop()


def test_instance_announces_functions(instance):
    assert instance.functions == ["fail", "square"]
    assert instance.alive()


def test_invoke_and_wait(instance):
    instance.invoke("i1", "square", pack_invocation((7,), {}))
    result = unpack_result(instance.wait_result("i1", timeout=30))
    assert result == 49


def test_concurrent_invocations(instance):
    for i in range(4):
        instance.invoke(f"i{i}", "square", pack_invocation((i,), {}))
    results = [
        unpack_result(instance.wait_result(f"i{i}", timeout=30)) for i in range(4)
    ]
    assert results == [0, 1, 4, 9]


def test_remote_exception_reraised(instance):
    instance.invoke("bad", "fail", pack_invocation(("boom",), {}))
    with pytest.raises(ValueError, match="boom"):
        unpack_result(instance.wait_result("bad", timeout=30))


def test_unknown_function_rejected_locally(instance):
    with pytest.raises(LibraryError):
        instance.invoke("x", "nope", pack_invocation((), {}))


def test_slot_accounting(instance):
    assert instance.has_free_slot()
    instance.invoke("s1", "square", pack_invocation((1,), {}))
    instance.invoke("s2", "square", pack_invocation((2,), {}))
    # two slots in flight; full until results are collected
    instance.wait_result("s1", timeout=30)
    instance.wait_result("s2", timeout=30)
    assert instance.has_free_slot()


def test_stop_terminates_process(instance):
    instance.stop()
    assert not instance.alive()


def test_broken_payload_raises():
    with pytest.raises(LibraryError):
        LibraryInstanceHandle("broken", b"not a pickle")


def test_function_state_loaded_once():
    """Initialization happens in the instance, not per invocation."""
    def probe():
        return os.getpid()

    handle = LibraryInstanceHandle("pids", build_payload({"probe": probe}), 2)
    try:
        handle.invoke("a", "probe", pack_invocation((), {}))
        handle.invoke("b", "probe", pack_invocation((), {}))
        pid_a = unpack_result(handle.wait_result("a", timeout=30))
        pid_b = unpack_result(handle.wait_result("b", timeout=30))
        # forked per invocation: distinct pids, neither is the worker's
        assert pid_a != pid_b
        assert pid_a != os.getpid() and pid_b != os.getpid()
    finally:
        handle.stop()


_HOST_WORKER = """
import sys, time
from repro.worker.library_instance import (
    LibraryInstanceHandle, build_payload, pack_invocation,
)

def stall():
    time.sleep(60)

handle = LibraryInstanceHandle("stall", build_payload({"stall": stall}))
handle.invoke("a", "stall", pack_invocation((), {}))
print(handle._proc.pid, flush=True)
time.sleep(60)
"""


def test_instance_and_its_forks_do_not_outlive_a_killed_worker():
    """A SIGKILLed worker cannot stop its instance, and the instance is
    in a process group of its own, beyond whatever reaps the worker's:
    it must notice the orphaning and take its invocation forks with it."""
    import signal
    import time

    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    host = subprocess.Popen(
        [sys.executable, "-c", _HOST_WORKER],
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
