"""Library instances: resident serverless processes at the worker.

The paper's serverless model (§3.4, Fig. 8): after receiving a
LibraryTask, the worker creates a pipe, forks a *Library Instance*,
and waits for an initialization message describing its functions.  To
run a FunctionCall, the worker sends an invocation message; the
instance **forks** to run the already-loaded code so per-call state
cannot pollute the resident process, and returns the serialized result.

Implementation: :class:`LibraryInstanceHandle` lives in the worker and
owns a ``multiprocessing`` child running :func:`_instance_main`.  The
instance deserializes the function table once (the expensive
initialization the model amortizes), then forks one short-lived
process per invocation, with results flowing back over a shared queue.
Multiple invocations run concurrently up to ``function_slots``.

The instance leads a process group of its own, which its invocation
forks inherit: the worker kills the group when it stops the instance or
finds it dead mid-call, and the instance kills it itself when its worker
disappears, so user code never runs on with nothing supervising it.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time
import traceback
from typing import Any, Callable, Optional

from repro.protocol import serialization as ser

__all__ = ["LibraryInstanceHandle", "LibraryError"]

#: fork start method gives true paper semantics (shared loaded state)
_CTX = mp.get_context("fork")


class LibraryError(RuntimeError):
    """Library failed to initialize or died mid-workflow."""


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


def _invoke_child(
    functions_blob: bytes,
    function: str,
    args_blob: bytes,
    result_queue,
    invocation_id: str,
    paths: Optional[dict] = None,
) -> None:  # pragma: no cover - runs in a forked child
    """Run one invocation in a forked process and post the result.

    Posts ``(invocation_id, blob, meta)``: the serialized result
    envelope plus a plain-dict sidechannel (``ok``, ``traceback``) the
    worker can act on without unpickling the envelope — result values
    may reference classes that only exist inside this child.
    """
    try:
        functions = _invoke_child._cache  # populated pre-fork, see below
    except AttributeError:
        functions = ser.loads(functions_blob)
    try:
        if paths:
            from repro.core.resultref import install_local_paths

            install_local_paths(paths)
        payload = ser.loads(args_blob)
        fn = functions[function]
        args = _materialize(tuple(payload.get("args", ())))
        kwargs = _materialize(dict(payload.get("kwargs", {})))
        value = fn(*args, **kwargs)
        blob = ser.dumps({"ok": True, "value": value})
        meta = {"ok": True, "traceback": None}
    except BaseException as exc:
        tb = traceback.format_exc()
        blob = ser.dumps({"ok": False, "error": exc, "traceback": tb})
        meta = {"ok": False, "traceback": tb}
    result_queue.put((invocation_id, blob, meta))


def _instance_main(
    conn, result_queue, payload: bytes
) -> None:  # pragma: no cover - separate process
    """Main loop of the resident library process.

    Loads the function table once, announces readiness, then forks a
    child per invocation message until told to stop.
    """
    # own process group, like a task's (executor.py): the worker can
    # kill the invocation forks together with — or after — the instance
    os.setsid()
    worker = os.getppid()
    try:
        functions: dict[str, Callable] = ser.loads_portable(payload)
        _invoke_child._cache = functions  # type: ignore[attr-defined]
        conn.send({"type": "init", "functions": sorted(functions)})
    except Exception as exc:
        conn.send({"type": "init_error", "error": repr(exc)})
        return
    while True:
        try:
            if not conn.poll(1.0):
                if os.getppid() != worker:
                    # the worker died without a stop (killed): no EOF
                    # arrives — the forks hold the pipe open — and, in
                    # its own group, nothing that reaps the worker's
                    # group would reach this process or its forks
                    os.killpg(0, signal.SIGKILL)
                continue
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg.get("type") == "stop":
            break
        if msg.get("type") != "invoke":
            continue
        _CTX.active_children()  # reap finished invocation forks
        child = _CTX.Process(
            target=_invoke_child,
            args=(
                b"",
                msg["function"],
                msg["args_blob"],
                result_queue,
                msg["id"],
                msg.get("paths"),
            ),
        )
        child.start()
    for child in _CTX.active_children():
        child.join(timeout=5)


class LibraryInstanceHandle:
    """Worker-side handle to one running library instance."""

    def __init__(self, name: str, payload: bytes, function_slots: int = 1) -> None:
        self.name = name
        self.function_slots = max(1, function_slots)
        self._parent_conn, child_conn = _CTX.Pipe()
        self._results: mp.Queue = _CTX.Queue()
        # not a daemon: the instance must be able to fork per invocation
        self._proc = _CTX.Process(
            target=_instance_main,
            args=(child_conn, self._results, payload),
        )
        self._proc.start()
        child_conn.close()
        init = self._wait_init()
        self.functions: list[str] = init
        self._lock = threading.Lock()
        self._waiters: dict[str, "threading.Event"] = {}
        self._done: dict[str, tuple[bytes, Optional[dict]]] = {}
        self._in_flight = 0
        self._collector = threading.Thread(target=self._collect, daemon=True)
        self._collector.start()

    def _wait_init(self, timeout: float = 60.0) -> list[str]:
        if not self._parent_conn.poll(timeout):
            self.stop()
            raise LibraryError(f"library {self.name!r} did not initialize in time")
        msg = self._parent_conn.recv()
        if msg.get("type") != "init":
            self.stop()
            raise LibraryError(
                f"library {self.name!r} failed to initialize: {msg.get('error')}"
            )
        return msg["functions"]

    # -- invocation -------------------------------------------------------

    def has_free_slot(self) -> bool:
        """True if another invocation may start under the slot limit."""
        with self._lock:
            return self._in_flight < self.function_slots

    def invoke(
        self,
        invocation_id: str,
        function: str,
        args_blob: bytes,
        paths: Optional[dict] = None,
    ) -> None:
        """Start an invocation; result arrives via :meth:`wait_result`.

        ``paths`` maps cache names to worker-local file paths; the
        invocation child installs it so proxy arguments dereference
        against this worker's cache instead of the network.
        """
        if function not in self.functions:
            raise LibraryError(
                f"library {self.name!r} has no function {function!r}"
            )
        with self._lock:
            self._in_flight += 1
            self._waiters[invocation_id] = threading.Event()
        self._parent_conn.send(
            {
                "type": "invoke",
                "id": invocation_id,
                "function": function,
                "args_blob": args_blob,
                "paths": dict(paths or {}),
            }
        )

    def wait_result(self, invocation_id: str, timeout: Optional[float] = None) -> bytes:
        """Block until an invocation's serialized result is available."""
        blob, _meta = self.wait_result_full(invocation_id, timeout)
        return blob

    def wait_result_full(
        self, invocation_id: str, timeout: Optional[float] = None
    ) -> tuple[bytes, Optional[dict]]:
        """Like :meth:`wait_result`, but also returns the meta sidechannel.

        ``meta`` is a plain dict (``ok``, ``traceback``) the worker can
        inspect without unpickling the result envelope — envelope values
        may reference classes that only exist in the invocation child.

        Waits in short slices so a crash of the resident instance is
        detected within a second rather than after the full call
        timeout — a dead instance can no longer fork the invocation, so
        waiting out the deadline would just stall the worker slot.
        """
        event = self._waiters[invocation_id]
        deadline = None if timeout is None else time.monotonic() + timeout
        while not event.wait(0.1):
            if not self._proc.is_alive():
                # grace period: an already-forked invocation child can
                # still post its result after the resident dies
                if event.wait(0.5):
                    break
                with self._lock:
                    self._waiters.pop(invocation_id, None)
                    self._in_flight = max(0, self._in_flight - 1)
                self._kill_group()
                raise LibraryError(
                    f"library {self.name!r} instance died before invocation "
                    f"{invocation_id} returned"
                )
            if deadline is not None and time.monotonic() >= deadline:
                raise LibraryError(f"invocation {invocation_id} timed out")
        with self._lock:
            del self._waiters[invocation_id]
            return self._done.pop(invocation_id)

    def _collect(self) -> None:
        while True:
            try:
                item = self._results.get()
            except (EOFError, OSError):
                return
            invocation_id, blob = item[0], item[1]
            meta = item[2] if len(item) > 2 else None
            if invocation_id is None:
                return
            with self._lock:
                self._done[invocation_id] = (blob, meta)
                self._in_flight -= 1
                waiter = self._waiters.get(invocation_id)
            if waiter is not None:
                waiter.set()

    # -- lifecycle --------------------------------------------------------

    def alive(self) -> bool:
        """True while the resident process is running."""
        return self._proc.is_alive()

    def stop(self) -> None:
        """Terminate the instance and its collector (idempotent)."""
        try:
            self._parent_conn.send({"type": "stop"})
        except (OSError, BrokenPipeError):
            pass
        self._proc.join(timeout=2)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=2)
        self._kill_group()
        try:
            self._results.put((None, b""))
        except (OSError, ValueError):
            pass

    def _kill_group(self) -> None:
        """Kill what is left of the instance's process group.

        Invocation forks outlive a dead instance: re-parented to init
        they would run user code to its end with nothing supervising
        them, holding every descriptor they inherited from the worker.
        """
        try:
            os.killpg(self._proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass  # the group is already empty (or never formed)


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
