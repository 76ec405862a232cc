"""Library instances: resident serverless processes at the worker.

The paper's serverless model (§3.4, Fig. 8): after receiving a
LibraryTask, the worker creates a pipe, forks a *Library Instance*,
and waits for an initialization message describing its functions.  To
run a FunctionCall, the worker sends an invocation message; the
instance **forks** to run the already-loaded code so per-call state
cannot pollute the resident process, and reports the outcome.

Implementation: :class:`LibraryInstanceHandle` lives in the worker and
owns one ``os.fork()`` of it running :func:`_instance_main`, joined to
it by two pipes.  The instance deserializes the function table once
(the expensive initialization the model amortizes), then per
invocation message does exactly one more bare ``os.fork()``, reaped
with ``waitpid(WNOHANG)``.  The invocation fork serializes its result
envelope once and writes it straight to the cache staging path the
worker named in the message; only ``(id, ok, size, traceback)`` comes
back on the reply pipe, so result bytes never cross a pipe and are
never copied by the worker.  How many invocations run at once is the
manager's decision (``function_slots``, enforced by its slot ledger);
the instance forks whatever it is sent.

The instance leads a process group of its own, which its invocation
forks inherit, and keeps no descriptor of the worker's but its two
pipe ends and stdio: a task's output pipe that happened to be open in
the worker at fork time is not held open by the instance, and the
command pipe reaches end-of-file exactly when the worker stops the
instance or dies, at which point the instance kills its own group —
user code never runs on with nothing supervising it.
"""

from __future__ import annotations

import gc
import os
import pickle
import select
import signal
import struct
import sys
import threading
import time
import traceback
from typing import Any, Callable, Optional

from repro.protocol import serialization as ser

__all__ = ["LibraryInstanceHandle", "LibraryError"]

_HEADER = struct.Struct("!I")
#: bytes of traceback a reply may carry: with the header and the other
#: fields the frame stays under ``PIPE_BUF``, so its single ``write`` is
#: atomic and replies of concurrent invocation forks never interleave
_TRACEBACK_MAX = 3000


class LibraryError(RuntimeError):
    """Library failed to initialize or died mid-workflow."""


# -- pipe framing ------------------------------------------------------------


def _write_frame(fd: int, obj: Any) -> None:
    body = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    view = memoryview(_HEADER.pack(len(body)) + body)
    while view:
        view = view[os.write(fd, view):]


def _read_exact(fd: int, n: int) -> Optional[bytes]:
    chunks = []
    while n:
        chunk = os.read(fd, n)
        if not chunk:
            return None  # every write end is closed
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _read_frame(fd: int) -> Any:
    """Next framed object, or None at end-of-file."""
    header = _read_exact(fd, _HEADER.size)
    body = header and _read_exact(fd, _HEADER.unpack(header)[0])
    return pickle.loads(body) if body else None


# -- the instance and its invocation forks -----------------------------------


def _materialize(obj: Any) -> Any:
    """Recursively replace :class:`ResultProxy` objects with their values.

    Runs in the forked invocation child *after* the worker-local cache
    paths are installed, so each dereference is a local file read — the
    by-reference bytes were already staged to this worker as task
    inputs, never through the manager.
    """
    from repro.core.resultref import ResultProxy

    if isinstance(obj, ResultProxy):
        return obj.resolve()
    if isinstance(obj, list):
        return [_materialize(x) for x in obj]
    if isinstance(obj, tuple):
        return tuple(_materialize(x) for x in obj)
    if isinstance(obj, set):
        return {_materialize(x) for x in obj}
    if isinstance(obj, dict):
        return {_materialize(k): _materialize(v) for k, v in obj.items()}
    return obj


def _reply(replies: int, invocation_id: str, ok: bool, size: int, tb: str) -> None:
    tb = tb.encode()[-_TRACEBACK_MAX:].decode(errors="ignore")
    _write_frame(replies, (invocation_id, ok, size, tb))


def _run_invocation(
    functions: dict[str, Callable], replies: int, message: tuple
) -> None:  # pragma: no cover - runs in a forked child
    """Run one invocation and leave its outcome for the worker.

    The serialized envelope (``ok`` + ``value``, or ``error`` +
    ``traceback``) goes to the ``staging`` file; the reply carries
    only what the worker must act on, which it can do without
    unpickling the envelope — result values may reference classes that
    only exist inside this child.
    """
    invocation_id, function, args_blob, staging, paths = message
    try:
        tb = ""
        try:
            if paths:
                from repro.core.resultref import install_local_paths

                install_local_paths(paths)
            payload = ser.loads(args_blob)
            args = _materialize(tuple(payload.get("args", ())))
            kwargs = _materialize(dict(payload.get("kwargs", {})))
            value = functions[function](*args, **kwargs)
            blob = ser.dumps({"ok": True, "value": value})
        except BaseException as exc:
            tb = traceback.format_exc()
            try:
                blob = ser.dumps({"ok": False, "error": exc, "traceback": tb})
            except Exception:  # an exception that does not pickle
                blob = ser.dumps({"ok": False, "error": None, "traceback": tb})
        with open(staging, "wb") as f:
            f.write(blob)
        _reply(replies, invocation_id, not tb, len(blob), tb)
    except BaseException:
        _reply(replies, invocation_id, False, 0, traceback.format_exc())


def _close_inherited(keep: set[int]) -> None:
    """Close every descriptor this process was forked with but ``keep``."""
    for name in os.listdir("/proc/self/fd"):
        fd = int(name)
        if fd not in keep:
            try:
                os.close(fd)
            except OSError:
                pass  # the descriptor listdir itself was using


def _instance_main(
    commands: int, replies: int, payload: bytes
) -> None:  # pragma: no cover - separate process
    """Main loop of the resident library process.

    Loads the function table once, announces readiness, then forks a
    child per invocation message until its command pipe closes.
    """
    # own process group, like a task's (executor.py): the worker can
    # kill the invocation forks together with — or after — the instance
    os.setsid()
    # the worker's sockets, logs and any task pipe open at fork time
    # are not this process's to hold open
    _close_inherited({0, 1, 2, commands, replies})
    try:
        functions: dict[str, Callable] = ser.loads_portable(payload)
        _write_frame(replies, ("init", sorted(functions)))
    except Exception as exc:
        _write_frame(replies, ("init_error", repr(exc)))
        return
    # the invocation path (proxy arguments, worker-local paths) is loaded
    # here, once: the worker does not load it, and a fork that imported
    # it would compile it again on every call
    import repro.core.resultref  # noqa: F401

    # what the worker and the import left on the heap is never garbage
    # here: keep the collector off it (and off the forks' shared pages)
    gc.freeze()
    running: dict[int, str] = {}  # invocation fork pid -> invocation id
    while True:
        # (the timeout only bounds how long a dead fork waits to be reaped)
        ready, _, _ = select.select([commands], [], [], 1.0 if running else None)
        message = _read_frame(commands) if ready else None
        if ready and message is None:
            # stopped, or the worker died: nothing supervises the forks
            os.killpg(0, signal.SIGKILL)
        while running:
            pid, status = os.waitpid(-1, os.WNOHANG)
            if pid == 0:
                break
            invocation_id = running.pop(pid)
            if status != 0:
                # killed or crashed before it could reply for itself
                _reply(
                    replies, invocation_id, False, 0,
                    f"invocation process ended with wait status {status}",
                )
        if message is None:
            continue
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(commands)
                _run_invocation(functions, replies, message)
                status = 0  # it answered for itself
                sys.stdout.flush()
                sys.stderr.flush()
            finally:
                os._exit(status)
        running[pid] = message[0]


class LibraryInstanceHandle:
    """Worker-side handle to one running library instance."""

    def __init__(self, name: str, payload: bytes) -> None:
        self.name = name
        commands, self._commands = os.pipe()
        self._replies, replies = os.pipe()
        #: the instance's pid, and the id of the process group it leads
        self.pid = os.fork()
        if self.pid == 0:
            try:
                _instance_main(commands, replies, payload)
            finally:
                os._exit(1)
        os.close(commands)
        os.close(replies)
        self._exited = False
        self._lock = threading.Lock()
        self._waiters: dict[str, threading.Event] = {}
        self._done: dict[str, tuple[bool, int, str]] = {}
        self._collector: Optional[threading.Thread] = None
        self.functions: list[str] = self._wait_init()
        self._collector = threading.Thread(target=self._collect, daemon=True)
        self._collector.start()

    def _wait_init(self, timeout: float = 60.0) -> list[str]:
        ready, _, _ = select.select([self._replies], [], [], timeout)
        reply = _read_frame(self._replies) if ready else None
        if reply is None or reply[0] != "init":
            self.stop()
            os.close(self._replies)
            detail = reply[1] if reply else "no answer from the instance"
            raise LibraryError(
                f"library {self.name!r} failed to initialize: {detail}"
            )
        return reply[1]

    # -- invocation -------------------------------------------------------

    def invoke(
        self,
        invocation_id: str,
        function: str,
        args_blob: bytes,
        staging: str,
        paths: Optional[dict] = None,
    ) -> None:
        """Start an invocation; its outcome arrives via :meth:`wait`.

        The invocation's fork writes the serialized result envelope to
        ``staging`` (a path of the caller's choosing, typically in the
        cache's staging area).  ``paths`` maps cache names to
        worker-local file paths; the fork installs it so proxy
        arguments dereference against this worker's cache instead of
        the network.
        """
        if function not in self.functions:
            raise LibraryError(
                f"library {self.name!r} has no function {function!r}"
            )
        message = (invocation_id, function, args_blob, staging, dict(paths or {}))
        with self._lock:
            if self._commands is None or not self.alive():
                raise LibraryError(f"library {self.name!r} is not running")
            _write_frame(self._commands, message)
            self._waiters[invocation_id] = threading.Event()

    def wait(
        self, invocation_id: str, timeout: Optional[float] = None
    ) -> tuple[bool, int, str]:
        """Block until an invocation ends; ``(ok, size, traceback)``.

        ``size`` is the length of the envelope now at the invocation's
        staging path.  Raises :class:`LibraryError` when ``timeout``
        passes, or as soon as the instance is found dead with the
        invocation unanswered — a dead instance can no longer reap the
        fork, so waiting out the deadline would just stall the slot.
        """
        answered = self._waiters[invocation_id].wait(timeout)
        with self._lock:
            del self._waiters[invocation_id]
            outcome = self._done.pop(invocation_id, None)
        if outcome is not None:
            return outcome
        if not answered:
            raise LibraryError(f"invocation {invocation_id} timed out")
        raise LibraryError(
            f"library {self.name!r} instance died before invocation "
            f"{invocation_id} returned"
        )

    def _collect(self) -> None:
        """Hand each reply to its waiter until the instance is gone."""
        while True:
            ready, _, _ = select.select([self._replies], [], [], 0.5)
            if ready:
                reply = _read_frame(self._replies)
                if reply is None:
                    break  # the instance and every fork of it are gone
                with self._lock:
                    waiter = self._waiters.get(reply[0])
                    if waiter is not None:  # else: it gave up waiting
                        self._done[reply[0]] = reply[1:]
                        waiter.set()
            elif not self.alive():
                # dead for a quiet half second: an already-forked
                # invocation had its grace period to report in
                break
        os.close(self._replies)
        self._kill_group()
        with self._lock:
            unanswered = list(self._waiters.values())
        for waiter in unanswered:
            waiter.set()

    # -- lifecycle --------------------------------------------------------

    def alive(self) -> bool:
        """True while the resident process is running."""
        if not self._exited:
            try:
                self._exited = os.waitpid(self.pid, os.WNOHANG)[0] != 0
            except ChildProcessError:
                self._exited = True  # another thread reaped it
        return not self._exited

    def stop(self) -> None:
        """Terminate the instance and its invocation forks (idempotent)."""
        with self._lock:
            if self._commands is not None:
                # end-of-file on its command pipe is the stop message
                os.close(self._commands)
                self._commands = None
        deadline = time.monotonic() + 2.0
        while self.alive() and time.monotonic() < deadline:
            time.sleep(0.005)
        self._kill_group()
        if self._collector is not None:
            self._collector.join(timeout=2.0)

    def _kill_group(self) -> None:
        """Kill what is left of the instance's process group.

        Invocation forks outlive a dead instance: re-parented to init
        they would run user code to its end with nothing supervising
        them.
        """
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            # the group is already empty — or not formed yet, when the
            # instance is stopped before it got as far as ``setsid``
            if self.alive():
                os.kill(self.pid, signal.SIGKILL)


def build_payload(functions: dict[str, Callable]) -> bytes:
    """Serialize a function table for shipment to workers."""
    return ser.dumps_portable(functions)


def pack_invocation(args: tuple, kwargs: dict) -> bytes:
    """Serialize one invocation's arguments."""
    return ser.dumps({"args": args, "kwargs": kwargs})


def unpack_result(blob: bytes) -> Any:
    """Decode an invocation result; re-raises the remote exception."""
    result = ser.loads(blob)
    if result.get("ok"):
        return result.get("value")
    error = result.get("error")
    if isinstance(error, BaseException):
        raise error
    raise LibraryError(f"remote invocation failed: {result.get('traceback')}")
