"""The TaskVine worker process.

A worker manages the resources of one node (paper §2.1): it keeps a
flat cache of named objects, executes tasks in private sandboxes,
performs transfers asynchronously as commanded, hosts library
instances, and reports every status change of interest to the manager
(``cache-update`` / ``cache-invalid`` / ``task-done`` messages).

Structure: the main loop reads manager commands (and any attached byte
payloads) from the command connection; long-running work — task
execution, fetches, mini-task staging, function invocations — runs on
worker threads; every outgoing message leaves as soon as it is
produced, through one :class:`~repro.protocol.batching.BatchSender`,
which serializes the writers.  One clock thread sends a heartbeat and
then dumps ``metrics.json`` every few seconds.  A
:class:`~repro.worker.transfers.PeerTransferServer` serves this
worker's cache to peers on a separate port.
"""

from __future__ import annotations

import os
import signal
import tempfile
import threading
import time
import traceback
from typing import Optional, Sequence

from repro.core.files import CacheLevel
from repro.core.resources import Resources
from repro.protocol.batching import BatchSender
from repro.protocol.connection import Connection, ProtocolError
from repro.protocol.messages import M, validate
from repro.observe.metrics import MetricsRegistry
from repro.util.logging import get_logger
from repro.worker.cache import WorkerCache
from repro.worker.executor import run_command
from repro.worker.library_instance import LibraryInstanceHandle
from repro.worker.sandbox import Sandbox, SandboxError
from repro.worker.transfers import (
    CorruptTransfer,
    PeerTransferServer,
    TransferFailed,
    fetch_from_peer,
    fetch_from_url,
    pack_directory,
    verify_outcome,
)

__all__ = ["Worker"]

log = get_logger(__name__)


class Worker:
    """One worker node's mechanisms, driven by manager policy."""

    def __init__(
        self,
        manager_host: str,
        manager_port: int,
        workdir: str,
        cores: float = 4,
        memory: int = 4_000,
        disk: int = 10_000,
        gpus: int = 0,
        task_timeout: Optional[float] = 600.0,
        max_cache_bytes: Optional[int] = None,
        eviction_grace: float = 5.0,
        fault_config=None,
        reconnect_window: float = 0.0,
    ) -> None:
        self.workdir = os.path.abspath(workdir)
        os.makedirs(self.workdir, exist_ok=True)
        # the worker is a separate process from the manager, so it keeps
        # its own registry; snapshots land in <workdir>/metrics.json for
        # repro-status --metrics and post-mortem inspection
        self.metrics = MetricsRegistry()
        self._m_fetch_url = self.metrics.histogram("fetch.url_seconds")
        self._m_fetch_peer = self.metrics.histogram("fetch.peer_seconds")
        self._m_fetch_failures = self.metrics.counter("fetch.failures")
        self._m_sandbox = self.metrics.histogram("sandbox.setup_seconds")
        self._m_exec = self.metrics.histogram("task.execution_seconds")
        self._m_invoke = self.metrics.histogram("library.invoke_seconds")
        self._m_evictions = self.metrics.counter("cache.evictions")
        self._m_eviction_bytes = self.metrics.counter("cache.eviction_bytes")
        # content-verification accounting: skips (nothing checkable)
        # must be distinguishable from passes for chaos-run forensics
        self._m_verify = {
            outcome: self.metrics.counter(f"verify.{outcome}")
            for outcome in ("passed", "skipped", "failed")
        }
        self.cache = WorkerCache(
            os.path.join(self.workdir, "cache"), metrics=self.metrics
        )
        self.sandbox_root = os.path.join(self.workdir, "sandboxes")
        os.makedirs(self.sandbox_root, exist_ok=True)
        self.capacity = Resources(cores=cores, memory=memory, disk=disk, gpus=gpus)
        self.task_timeout = task_timeout
        #: cache admission bound; exceeding it evicts LRU unpinned
        #: objects (paper §2.2: cached files must not exhaust the disk)
        self.max_cache_bytes = max_cache_bytes
        #: objects younger than this are never evicted: they were just
        #: transferred for a task whose EXECUTE (and pin) is in flight
        self.eviction_grace = eviction_grace
        self._peer_server = PeerTransferServer(self._lookup, metrics=self.metrics)
        self._metrics_path = os.path.join(self.workdir, "metrics.json")
        self._manager_addr = (manager_host, manager_port)
        #: how long (seconds) to keep retrying the manager address after
        #: the connection drops.  0 preserves the historical behaviour:
        #: a lost manager ends the worker.  Non-zero makes the worker
        #: survive a crash-safe manager restart — it reconnects with
        #: exponential backoff and re-registers its cache inventory so
        #: the new manager life re-adopts the surviving replicas.
        self.reconnect_window = reconnect_window
        #: set when the manager *told* us to shut down; reconnect never
        #: overrides an explicit SHUTDOWN
        self._shutdown_ordered = False
        self._conn = Connection.connect(manager_host, manager_port)
        #: all outbound traffic funnels through the sender, which
        #: serializes the writers
        self._sender = BatchSender(self._conn, metrics=self.metrics)
        self._stop = threading.Event()
        self._libraries: dict[str, LibraryInstanceHandle] = {}
        #: live subprocess handles by task id, for cancellation
        self._procs: dict[str, "object"] = {}
        self._procs_lock = threading.Lock()
        #: ids of the tasks an ``execute`` is at work on (sandbox taken)
        self._executing: set[str] = set()
        #: cache names pinned by in-flight work (inputs being used)
        self._pinned: dict[str, int] = {}
        self._pin_lock = threading.Lock()
        #: chaos-run self-sabotage instructions (WorkerFaultConfig)
        self.fault_config = fault_config
        self._tasks_executed = 0
        self._fault_rng = None
        self._fault_lock = threading.Lock()
        self._register()
        if fault_config is not None and not fault_config.empty:
            self._arm_faults(fault_config)
        self._clock = threading.Thread(
            target=self._clock_loop, name="worker-clock", daemon=True
        )
        self._clock.start()

    # -- fault injection (chaos runs) ----------------------------------

    def _arm_faults(self, cfg) -> None:
        if cfg.corrupt_serve_p > 0 or cfg.fail_serve_p > 0:
            self._fault_rng = cfg.rng()
            self._peer_server.tamper = self._serve_tamper
        if cfg.crash_at is not None:
            timer = threading.Timer(cfg.crash_at, self._fault_crash, ("crash",))
            timer.daemon = True
            timer.start()
        if cfg.disconnect_at is not None:
            timer = threading.Timer(cfg.disconnect_at, self._fault_disconnect)
            timer.daemon = True
            timer.start()
        if cfg.drain_at is not None:
            timer = threading.Timer(cfg.drain_at, self.announce_drain)
            timer.daemon = True
            timer.start()

    def _notify_fault(self, category: str, cache_name: Optional[str] = None) -> None:
        """Best-effort fault notice so the manager's log shows the cause."""
        msg = {"type": M.FAULT, "category": category}
        if cache_name is not None:
            msg["cache_name"] = cache_name
        try:
            self._send(msg)
        except (ProtocolError, OSError):
            pass

    def _fault_crash(self, category: str) -> None:
        log.warning("injected %s: exiting abruptly", category)
        self._notify_fault(category)
        os._exit(17)  # no cleanup: a crash leaves everything behind

    def _fault_disconnect(self) -> None:
        log.warning("injected disconnect: dropping manager connection")
        self._notify_fault("disconnect")
        try:
            self._conn.close()
        except OSError:
            pass

    def announce_drain(self, reason: Optional[str] = None) -> None:
        """Announce a graceful departure (elastic scale-down).

        The worker keeps serving running tasks and peer transfers; the
        manager migrates this worker's sole-holder objects to survivors
        and then answers with ``shutdown``, which ends the run loop
        without triggering a reconnect.
        """
        log.info("announcing graceful drain to manager")
        msg: dict = {"type": M.DRAINING}
        if reason is not None:
            msg["reason"] = reason
        try:
            self._send(msg)
        except (ProtocolError, OSError):
            pass

    def _serve_tamper(self, cache_name: str) -> Optional[str]:
        with self._fault_lock:
            verdict = self.fault_config.serve_verdict(self._fault_rng)
        if verdict is not None:
            log.warning("injected peer-serve %s for %s", verdict, cache_name[:32])
            self._notify_fault(f"serve_{verdict}", cache_name)
        return verdict

    def _clock_loop(self, interval: float = 5.0) -> None:
        """The worker's one clock: a heartbeat, so a silently hung worker
        is detectable, then a metrics dump, so ``repro-status --metrics``
        sees a live view."""
        while not self._stop.wait(interval):
            try:
                self._send({"type": M.HEARTBEAT})
            except (ProtocolError, OSError):
                # the command thread sees the loss too; with reconnect
                # enabled the sender is replaced under us, and the next
                # life gets heartbeats too
                pass
            self._dump_metrics()

    def _dump_metrics(self) -> None:
        try:
            self.metrics.dump(self._metrics_path)
        except OSError:
            pass  # the workdir vanished

    # -- cache pressure -----------------------------------------------------

    def _pin(self, names: list[str]) -> None:
        with self._pin_lock:
            for n in names:
                self._pinned[n] = self._pinned.get(n, 0) + 1

    def _unpin(self, names: list[str]) -> None:
        with self._pin_lock:
            for n in names:
                count = self._pinned.get(n, 0) - 1
                if count > 0:
                    self._pinned[n] = count
                else:
                    self._pinned.pop(n, None)

    def _enforce_cache_bound(self) -> None:
        """Evict least-valuable objects when over the admission bound.

        The worker provides the mechanism; each eviction is reported
        with a ``cache-invalid`` so the manager's replica table stays
        truthful (the manager remains the policy authority for
        everything it *directed*; local pressure relief is the one
        autonomous action, exactly as a disk-full worker must behave).
        """
        if self.max_cache_bytes is None:
            return
        from repro.core.gc import plan_eviction

        overflow = self.cache.total_bytes() - self.max_cache_bytes
        if overflow <= 0:
            return
        now = time.time()
        with self._pin_lock:
            pinned = set(self._pinned)
        pinned |= {
            e.cache_name
            for e in self.cache.entries()
            if now - e.last_used < self.eviction_grace
        }
        for victim in plan_eviction(self.cache.eviction_view(), overflow, pinned):
            size = self.cache.entry(victim).size if self.cache.has(victim) else 0
            if self.cache.remove(victim):
                log.info("evicted %s under cache pressure", victim[:32])
                self._m_evictions.inc()
                self._m_eviction_bytes.inc(size)
                try:
                    self._cache_invalid(victim, "evicted: cache pressure")
                except (ProtocolError, OSError):
                    pass  # no manager to tell; a rejoin lists what is left

    # -- outbound ----------------------------------------------------------

    def _send(self, message: dict, payload: Optional[bytes] = None) -> None:
        self._sender.send(message, payload)

    def _register(self, rejoin: bool = False) -> None:
        cached = [
            [e.cache_name, e.size, int(e.level)] for e in self.cache.entries()
        ]
        msg = {
            "type": M.REGISTER,
            "capacity": self.capacity.to_dict(),
            "transfer_port": self._peer_server.port,
            "transfer_host": self._peer_server.host,
            "workdir": self.workdir,
            "cached": cached,
        }
        if rejoin:
            # the cached inventory above is what lets a restarted
            # manager re-adopt surviving replicas during its grace window
            msg["rejoin"] = True
        self._send(msg)

    def _reconnect(self) -> bool:
        """Retry the manager address with exponential backoff.

        Returns True once a fresh connection is registered, False when
        the window expires (or shutdown intervenes).  The old sender and
        connection are torn down first so in-flight worker threads fail
        fast instead of writing into a dead socket.
        """
        deadline = time.monotonic() + self.reconnect_window
        try:
            self._sender.close()
        except (ProtocolError, OSError):
            pass
        try:
            self._conn.close()
        except OSError:
            pass
        delay = 0.2
        while not self._stop.is_set() and time.monotonic() < deadline:
            try:
                conn = Connection.connect(*self._manager_addr)
            except OSError:
                time.sleep(min(delay, max(0.0, deadline - time.monotonic())))
                delay = min(delay * 2, 5.0)
                continue
            self._conn = conn
            self._sender = BatchSender(conn, metrics=self.metrics)
            try:
                self._register(rejoin=True)
            except (ProtocolError, OSError):
                continue  # manager died again mid-handshake; keep trying
            log.info("reconnected to manager at %s:%d", *self._manager_addr)
            return True
        return False

    def _lookup(self, cache_name: str) -> Optional[str]:
        return self.cache.path_of(cache_name) if self.cache.has(cache_name) else None

    def _cache_update(self, cache_name: str, size: int, transfer_id: Optional[str] = None) -> None:
        msg = {"type": M.CACHE_UPDATE, "cache_name": cache_name, "size": size}
        if transfer_id is not None:
            msg["transfer_id"] = transfer_id
        try:
            self._send(msg)
        except (ProtocolError, OSError):
            return  # no manager to tell; it requeues what it lost
        self._enforce_cache_bound()

    def _cache_invalid(
        self,
        cache_name: str,
        reason: str,
        transfer_id: Optional[str] = None,
        corrupt: bool = False,
    ) -> None:
        msg = {"type": M.CACHE_INVALID, "cache_name": cache_name, "reason": reason}
        if transfer_id is not None:
            msg["transfer_id"] = transfer_id
        if corrupt:
            # tells the manager the *source's* copy is suspect, not just
            # the link: corruption feeds replica-loss handling
            msg["corrupt"] = True
        self._send(msg)

    def _task_done(
        self,
        task_id: str,
        exit_code: int,
        output: str,
        outputs: Sequence[tuple[str, int]] = (),
        **report,
    ) -> None:
        """Report a task's end, now, as one message.

        The ``(cache_name, size)`` of every output the attempt left in
        the cache rides the report itself: the manager registers them
        if it accepts the attempt.
        """
        done = {
            "type": M.TASK_DONE,
            "task_id": task_id,
            "exit_code": exit_code,
            "output": output,
            **report,
        }
        if outputs:
            done["outputs"] = list(outputs)  # [[cache_name, size], …] on the wire
        try:
            self._send(done)
        except (ProtocolError, OSError):
            return  # no manager to tell; it requeues what it lost
        if outputs:
            self._enforce_cache_bound()

    def _count_verify(self, outcome: str, cache_name: str = "") -> None:
        self._m_verify[outcome].inc()
        if outcome == "failed":
            log.warning("content verification failed for %s", cache_name[:48])

    # -- main loop --------------------------------------------------------

    def run(self) -> None:
        """Serve manager commands until shutdown or disconnect.

        With a non-zero ``reconnect_window`` a dropped connection is
        not fatal: the worker re-dials the manager address (covering a
        crash-safe manager restart) and resumes serving.  An explicit
        SHUTDOWN from the manager always ends the worker.
        """
        try:
            while not self._stop.is_set():
                try:
                    msg = self._conn.recv_message()
                except (ProtocolError, OSError):
                    if self.reconnect_window > 0 and not self._shutdown_ordered:
                        log.warning(
                            "manager connection lost; retrying for %.0fs",
                            self.reconnect_window,
                        )
                        if self._reconnect():
                            continue
                    break
                mtype = validate(msg)
                # attached payloads must be drained on this thread to keep framing
                payload: Optional[bytes] = None
                if mtype in (M.INSTALL_LIBRARY, M.INVOKE):
                    payload = self._conn.recv_bytes(int(msg["payload_size"]))
                if mtype == M.PUT_FILE:
                    self._handle_put_file(msg)  # streams to disk inline
                    continue
                if mtype == M.SHUTDOWN:
                    self._shutdown_ordered = True
                    break
                self._dispatch(mtype, msg, payload)
        finally:
            self.shutdown()

    def _dispatch(self, mtype: str, msg: dict, payload: Optional[bytes]) -> None:
        handlers = {
            M.FETCH_FILE: self._handle_fetch,
            M.STAGE_MINITASK: self._handle_stage,
            M.EXECUTE: self._handle_execute,
            M.SEND_BACK: self._handle_send_back,
            M.UNLINK: self._handle_unlink,
            M.INSTALL_LIBRARY: self._handle_install_library,
            M.INVOKE: self._handle_invoke,
            M.CANCEL_TASK: self._handle_cancel,
        }
        handler = handlers.get(mtype)
        if handler is None:
            return
        if mtype in (M.UNLINK, M.SEND_BACK, M.CANCEL_TASK):
            handler(msg)  # quick, stay on the command thread
        else:
            args = (msg,) if payload is None else (msg, payload)
            threading.Thread(
                target=self._reported, args=(handler, *args), daemon=True
            ).start()

    def _reported(self, handler, msg: dict, *payload) -> None:
        """Thread body of every dispatched command: it ends in a report.

        A handler reports what it foresees itself (a missing input, a
        failed fetch, a non-zero exit).  Whatever else it raises would
        otherwise die with this thread — heartbeats go on, so to the
        manager the task runs, or the transfer is in flight, forever —
        and is reported here as the command's failure: ``task_done`` for
        a task, a call or a library install, ``cache_invalid`` for a
        fetch or a mini task.
        """
        try:
            handler(msg, *payload)
        except Exception as exc:
            log.exception("%s failed in the worker", msg["type"])
            reason = f"worker: {exc!r}"
            try:
                if "transfer_id" in msg:
                    self._cache_invalid(msg["cache_name"], reason, msg["transfer_id"])
                else:
                    self._task_done(
                        msg["task_id"], 126, traceback.format_exc()[-1000:],
                        failure=reason,
                    )
            except (ProtocolError, OSError):
                pass  # no manager to tell; it requeues what it lost

    # -- file movement -----------------------------------------------------

    def _handle_put_file(self, msg: dict) -> None:
        """Receive manager-sourced bytes; must run inline for framing."""
        cache_name = msg["cache_name"]
        size = int(msg["size"])
        level = CacheLevel(int(msg["level"]))
        staged = self.cache.staging_path(cache_name)
        self._conn.recv_to_file(staged, size)
        if msg.get("format") == "tar":
            from repro.worker.transfers import unpack_directory

            unpacked = self.cache.staging_path(cache_name + ".dir")
            unpack_directory(staged, unpacked)
            os.unlink(staged)
            staged = unpacked
        outcome = verify_outcome(cache_name, staged)
        self._count_verify(outcome, cache_name)
        if outcome == "failed":
            os.unlink(staged)
            self._cache_invalid(
                cache_name,
                "content verification failed for manager push",
                msg.get("transfer_id"),
                corrupt=True,
            )
            return
        entry = self.cache.insert_from(staged, cache_name, level, time.time())
        self._cache_update(cache_name, entry.size, msg.get("transfer_id"))

    def _handle_fetch(self, msg: dict) -> None:
        cache_name = msg["cache_name"]
        level = CacheLevel(int(msg["level"]))
        source = msg["source"]
        transfer_id = msg["transfer_id"]
        staged = self.cache.staging_path(cache_name)
        fetch_started = time.monotonic()

        def on_verify(outcome: str) -> None:
            self._count_verify(outcome, cache_name)

        try:
            if source["kind"] == "url":
                fetch_from_url(
                    source["url"], staged, cache_name=cache_name, on_verify=on_verify
                )
                self._m_fetch_url.observe(time.monotonic() - fetch_started)
            elif source["kind"] == "worker":
                fetch_from_peer(
                    source["host"], int(source["port"]), cache_name, staged,
                    on_verify=on_verify,
                )
                self._m_fetch_peer.observe(time.monotonic() - fetch_started)
            else:
                raise TransferFailed(f"unknown source kind {source['kind']!r}")
            entry = self.cache.insert_from(staged, cache_name, level, time.time())
            self._cache_update(cache_name, entry.size, transfer_id)
        except CorruptTransfer as exc:
            self._m_fetch_failures.inc()
            self._cache_invalid(cache_name, str(exc), transfer_id, corrupt=True)
        except (TransferFailed, OSError) as exc:
            self._m_fetch_failures.inc()
            self._cache_invalid(cache_name, str(exc), transfer_id)

    def _handle_send_back(self, msg: dict) -> None:
        """Stream an object to the manager.  It is opened before it is
        announced: one that vanished since it was cached (an eviction on
        another thread) is answered ``found: false``, and one removed
        once open still streams whole from its descriptor."""
        cache_name = msg["cache_name"]
        reply = {"type": M.FILE_DATA, "cache_name": cache_name, "found": False, "size": 0}
        try:
            f, fmt = self._open_object(cache_name)
        except OSError:
            self._send(reply)
            return
        with f:
            size = os.fstat(f.fileno()).st_size
            reply.update(found=True, size=size, format=fmt)
            self._sender.send_with_file(reply, f, size)

    def _open_object(self, cache_name: str):
        """An open binary file with a cached object's bytes, and their
        format: the file itself, or a tar of a directory."""
        path = self._lookup(cache_name)
        if path is None:
            raise FileNotFoundError(cache_name)
        if not os.path.isdir(path):
            return open(path, "rb"), "file"
        with tempfile.NamedTemporaryFile(suffix=".tar", delete=False) as tf:
            tar_path = tf.name
        try:
            pack_directory(path, tar_path)
            return open(tar_path, "rb"), "tar"
        finally:
            os.unlink(tar_path)  # an open tar outlives its name

    def _handle_unlink(self, msg: dict) -> None:
        self.cache.remove(msg["cache_name"])

    def _handle_cancel(self, msg: dict) -> None:
        with self._procs_lock:
            proc = self._procs.get(msg["task_id"])
        if proc is not None:
            self._kill_group(proc)

    @staticmethod
    def _kill_group(proc) -> None:
        """Kill a command's whole process group (it leads its own
        session, so nothing else would: a shell's children outlive it)."""
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    def _track(self, key: str):
        """``run_command``'s ``on_start`` hook: list the process under
        ``key`` for :meth:`_handle_cancel` and :meth:`shutdown`."""

        def register(proc) -> None:
            with self._procs_lock:
                self._procs[key] = proc
            if self._stop.is_set():
                self._kill_group(proc)  # started while shutting down

        return register

    # -- mini-task staging ------------------------------------------------

    def _handle_stage(self, msg: dict) -> None:
        """Materialize a file by running its mini-task (paper §2.4)."""
        spec = msg["spec"]
        cache_name = msg["cache_name"]
        level = CacheLevel(int(msg["level"]))
        transfer_id = msg["transfer_id"]
        sandbox = Sandbox(self.sandbox_root, f"stage-{transfer_id}")
        input_names = [p[1] for p in spec["inputs"]]
        self._pin(input_names)
        try:
            sandbox.link_inputs(self.cache, [tuple(p) for p in spec["inputs"]])
            outcome = run_command(
                spec["command"],
                sandbox.path,
                spec.get("env", {}),
                Resources.from_dict(spec.get("resources", {})),
                timeout=self.task_timeout,
                on_start=self._track(sandbox.task_id),
            )
            if outcome.exit_code != 0:
                raise SandboxError(
                    f"mini task exited {outcome.exit_code}: {outcome.output[:500]}"
                )
            sandbox.harvest_outputs(
                self.cache, [(spec["output_name"], cache_name, level)], time.time()
            )
            entry = self.cache.entry(cache_name)
            self._cache_update(cache_name, entry.size, transfer_id)
        except (SandboxError, OSError) as exc:
            self._cache_invalid(cache_name, str(exc), transfer_id)
        finally:
            with self._procs_lock:
                self._procs.pop(sandbox.task_id, None)
            self._unpin(input_names)
            sandbox.destroy()

    # -- task execution --------------------------------------------------

    def _handle_execute(self, msg: dict) -> None:
        task_id = msg["task_id"]
        log.debug("execute %s: %s", task_id, msg["command"][:60])
        cfg = self.fault_config
        if cfg is not None and cfg.crash_after_tasks is not None:
            with self._fault_lock:
                self._tasks_executed += 1
                nth = self._tasks_executed
            if nth == cfg.crash_after_tasks:
                # die mid-task: the manager never hears TASK_DONE and
                # must recover via connection loss
                self._fault_crash("crash")
        with self._procs_lock:
            if task_id in self._executing:
                # a restarted manager sent again what its previous life
                # had running here (the journal says READY): the attempt
                # still at it holds the sandbox, and its report — on the
                # connection of the day — answers both commands
                log.info("execute %s: already running here", task_id)
                return
            self._executing.add(task_id)
        sandbox = Sandbox(self.sandbox_root, task_id)
        staging_started = time.time()
        input_names = [p[1] for p in msg["inputs"]]
        self._pin(input_names)
        outcome = None
        failure = None
        produced: list[tuple[str, int]] = []
        # whatever ends the attempt, the pins and the sandbox go before
        # it is reported: the manager may send the task straight back,
        # and its next attempt takes the same sandbox path
        try:
            try:
                sandbox.link_inputs(self.cache, [tuple(p) for p in msg["inputs"]])
            except SandboxError as exc:
                failure = str(exc)
            else:
                outcome = run_command(
                    msg["command"],
                    sandbox.path,
                    msg.get("env", {}),
                    Resources.from_dict(msg["resources"]),
                    sandbox_usage=sandbox.disk_usage,
                    timeout=self.task_timeout,
                    on_start=self._track(task_id),
                )
                failure = self._harvest(sandbox, msg["outputs"], outcome, produced)
        finally:
            self._unpin(input_names)
            sandbox.destroy()
            with self._procs_lock:
                self._procs.pop(task_id, None)
                self._executing.discard(task_id)
        if outcome is None:
            # an input vanished since dispatch: the manager stages again
            self._task_done(task_id, 126, failure, failure="sandbox")
            return
        staging_time = max(0.0, time.time() - staging_started - outcome.execution_time)
        self._m_sandbox.observe(staging_time)
        self._m_exec.observe(outcome.execution_time)
        self._task_done(
            task_id,
            outcome.exit_code,
            outcome.output,
            produced,
            failure=failure,
            exceeded=outcome.exceeded,
            measured=outcome.measured.to_dict(),
            execution_time=outcome.execution_time,
            staging_time=staging_time,
        )

    def _harvest(
        self, sandbox: Sandbox, outputs, outcome, produced: list
    ) -> Optional[str]:
        """Move a finished command's declared ``outputs`` into the cache,
        listing each ``(cache_name, size)`` in ``produced`` as it lands;
        returns what to report as the attempt's failure, if anything."""
        # exit code 1 may still produce declared outputs (e.g. a PythonTask
        # whose function raised writes the serialized exception)
        try:
            for sandbox_name, cache_name, level in (tuple(o) for o in outputs):
                self.cache.remove(cache_name)  # never trust a stale partial
                sandbox.harvest_outputs(
                    self.cache,
                    [(sandbox_name, cache_name, CacheLevel(int(level)))],
                    time.time(),
                )
                produced.append((cache_name, self.cache.entry(cache_name).size))
        except SandboxError as exc:
            if outcome.exit_code == 0:
                return f"missing output: {exc}"
        except OSError as exc:
            return f"output harvest failed: {exc}"
        return None

    # -- serverless -----------------------------------------------------

    def _handle_install_library(self, msg: dict, payload: bytes) -> None:
        name = msg["library"]
        self._libraries[name] = LibraryInstanceHandle(name, payload)
        self._send(
            {"type": M.LIBRARY_READY, "library": name, "task_id": msg["task_id"]}
        )

    def _handle_invoke(self, msg: dict, payload: bytes) -> None:
        task_id = msg["task_id"]
        library = msg["library"]
        handle = self._libraries.get(library)
        if handle is None or not handle.alive():
            self._task_done(
                task_id, 1, f"library {library!r} not running", failure="library"
            )
            return
        result_name = msg["result_name"]
        input_names = [str(n) for n in msg.get("inputs", [])]
        self._pin(input_names)
        # the invocation's fork writes the result envelope here itself:
        # the bytes are serialized once, reach the cache by a rename,
        # and only their size comes back through the worker
        staged = self.cache.staging_path(result_name)
        try:
            invoke_started = time.monotonic()
            # argument blob: inline invoke payload, or (remote form) a
            # buffer previously staged into the cache
            args_blob = payload
            args_cache = msg.get("args_cache")
            if not args_blob and args_cache:
                path = self._lookup(args_cache)
                if path is None:
                    raise RuntimeError(f"argument blob {args_cache} not cached")
                with open(path, "rb") as f:
                    args_blob = f.read()
            # proxy arguments dereference against this worker's cache
            paths = {
                cn: p for cn in input_names if (p := self._lookup(cn)) is not None
            }
            handle.invoke(task_id, msg["function"], args_blob, staged, paths)
            ok, _size, tb = handle.wait(task_id, timeout=self.task_timeout)
            invoke_seconds = time.monotonic() - invoke_started
            self._m_invoke.observe(invoke_seconds)
            if ok:
                level = CacheLevel(
                    int(msg.get("result_level", int(CacheLevel.WORKFLOW)))
                )
                entry = self.cache.insert_from(
                    staged, result_name, level, time.time()
                )
                self._task_done(
                    task_id, 0, "", [(result_name, entry.size)],
                    execution_time=invoke_seconds,
                )
            else:
                # a failure envelope is never cached: a cached failure
                # under a content-addressed name would shadow a later
                # successful retry (insert_from keeps the existing entry)
                self._task_done(
                    task_id, 1, tb[-1000:],
                    failure=tb[-1000:] or "invoke", execution_time=invoke_seconds,
                )
        finally:
            self._unpin(input_names)
            if os.path.lexists(staged):  # anything but a cached success
                os.unlink(staged)

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self) -> None:
        """Kill what is running, then stop libraries, the peer server
        and the command channel: ordered out, or with the manager lost
        past the reconnect window, nobody is left to hear a result."""
        if self._stop.is_set():
            return
        self._stop.set()
        with self._procs_lock:
            running = list(self._procs.values())
        for proc in running:
            self._kill_group(proc)
        for handle in self._libraries.values():
            handle.stop()
        self._libraries.clear()
        self._peer_server.stop()
        self._sender.close()
        self._conn.close()
        self._clock.join(timeout=5)
        self._dump_metrics()  # the final counts
