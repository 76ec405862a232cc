"""The TaskVine worker process.

A worker manages the resources of one node (paper §2.1): it keeps a
flat cache of named objects, executes tasks in private sandboxes,
performs transfers asynchronously as commanded, hosts library
instances, and reports every status change of interest to the manager
(``cache-update`` / ``cache-invalid`` / ``task-done`` messages).

Structure: a worker is a :class:`~repro.core.reactor.Reactor` handler,
the manager's transport.  Its loop owns the manager connection — every
command enters :meth:`Worker.peer_message`, every message out is a
frame on the connection's one FIFO — and every clock, and its state
(pins, the tasks at work, their children) has no lock.  A step that
blocks runs on a thread the loop starts once it has pinned the inputs
and recorded the work; the thread posts its report, which the loop
sends before it enforces the cache bound, so an object's announcement
precedes its eviction's ``cache-invalid``.  A
:class:`~repro.worker.transfers.PeerTransferServer` serves this
worker's cache to peers on a separate port.
"""

from __future__ import annotations

import functools
import os
import signal
import tempfile
import threading
import time
import traceback
from typing import Optional, Sequence

from repro.core.files import CacheLevel
from repro.core.reactor import FileBody, Handler, Peer, Reactor
from repro.core.resources import Resources
from repro.protocol.connection import Connection, encode_frame
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


class Worker(Handler):
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
        self._m_frames_out = self.metrics.counter("net.frames_out")
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
        #: how long (seconds) to keep dialing the manager after the
        #: connection drops (0: a lost manager ends the worker), so a
        #: worker survives a crash-safe manager restart and re-registers
        #: its cache for the new life to re-adopt
        self.reconnect_window = reconnect_window
        #: set when the manager *told* us to shut down; reconnect never
        #: overrides an explicit SHUTDOWN
        self._shutdown_ordered = False
        self.reactor = Reactor(None, self)
        self._peer: Peer = self.reactor.adopt(
            Connection.connect(manager_host, manager_port).sock
        )
        #: what the loop does with each command (and the bytes it announced)
        self._handlers = {
            M.FETCH_FILE: lambda msg, _: self._off_loop(msg, self._fetch),
            M.PUT_FILE: lambda msg, _: self._off_loop(msg, self._store, self._pushed),
            M.INSTALL_LIBRARY: lambda msg, blob: self._off_loop(msg, self._install, blob),
            M.STAGE_MINITASK: self._handle_stage,
            M.EXECUTE: self._handle_execute,
            M.INVOKE: self._handle_invoke,
            M.SEND_BACK: self._handle_send_back,
            M.UNLINK: self._handle_unlink,
            M.CANCEL_TASK: self._handle_cancel,
        }
        # -- the loop's state: only the loop thread touches it ----------
        self._libraries: dict[str, LibraryInstanceHandle] = {}
        #: live subprocess handles by task id, for cancellation
        self._procs: dict[str, "object"] = {}
        #: ids of the tasks an ``execute`` is at work on (sandbox taken),
        #: each mapped to whether a ``cancel_task`` came for it
        self._executing: dict[str, bool] = {}
        #: cache names pinned by in-flight work (inputs being used)
        self._pinned: dict[str, int] = {}
        #: staging file of the ``put_file`` whose bytes are arriving
        self._pushed = ""
        #: ``_close`` ran: a child that starts from now on is killed
        self._closing = False
        #: an injected crash is under way: the process exits once its
        #: notice has left
        self._crashing = False
        #: chaos-run self-sabotage instructions (WorkerFaultConfig)
        self.fault_config = fault_config
        self._tasks_executed = 0
        self._fault_rng = None
        #: the tamper coin stream is drawn on the peer-serve threads
        self._fault_lock = threading.Lock()
        self._register()
        if fault_config is not None and not fault_config.empty:
            self._arm_faults(fault_config)
        self.reactor.call_later(5.0, self._beat, every=5.0)

    # -- fault injection (chaos runs) ----------------------------------

    def _arm_faults(self, cfg) -> None:
        if cfg.corrupt_serve_p > 0 or cfg.fail_serve_p > 0:
            self._fault_rng = cfg.rng()
            self._peer_server.tamper = self._serve_tamper
        if cfg.crash_at is not None:
            self.reactor.call_later(cfg.crash_at, self._fault_crash)
        if cfg.disconnect_at is not None:
            self.reactor.call_later(cfg.disconnect_at, self._fault_disconnect)
        if cfg.drain_at is not None:
            self.reactor.call_later(cfg.drain_at, self.announce_drain)

    def _fault_crash(self) -> None:
        log.warning("injected crash: exiting abruptly")
        self._crashing = True
        if self._peer.closed:
            os._exit(17)
        # the connection's last frame: peer_closed exits once it has left,
        # and nothing read after it is handled
        self._send({"type": M.FAULT, "category": "crash"}, last=True)

    def _fault_disconnect(self) -> None:
        log.warning("injected disconnect: dropping manager connection")
        self._send({"type": M.FAULT, "category": "disconnect"}, last=True)

    def announce_drain(self, reason: Optional[str] = None) -> None:
        """Announce a graceful departure (elastic scale-down; loop).  The
        worker serves on while the manager migrates its sole-holder
        objects, then answers ``shutdown``, which ends it for good."""
        log.info("announcing graceful drain to manager")
        msg: dict = {"type": M.DRAINING}
        if reason is not None:
            msg["reason"] = reason
        self._send(msg)

    def _serve_tamper(self, cache_name: str) -> Optional[str]:
        """(peer-serve thread) Draw one serve's injected fate."""
        with self._fault_lock:
            verdict = self.fault_config.serve_verdict(self._fault_rng)
        if verdict is not None:
            log.warning("injected peer-serve %s for %s", verdict, cache_name[:32])
            notice = {"type": M.FAULT, "category": f"serve_{verdict}", "cache_name": cache_name}
            self.reactor.post(self._send, notice)
        return verdict

    def _beat(self) -> None:
        """The worker's one clock: a heartbeat, so a silently hung worker
        is detectable, then a metrics dump, so ``repro-status --metrics``
        sees a live view."""
        self._send({"type": M.HEARTBEAT})
        self._dump_metrics()

    def _dump_metrics(self) -> None:
        try:
            self.metrics.dump(self._metrics_path)
        except OSError:
            pass  # the workdir vanished

    # -- cache pressure -----------------------------------------------------

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
                # with no manager to tell, a rejoin lists what is left
                self._send(self._cache_invalid(victim, "evicted: cache pressure"))

    # -- outbound ----------------------------------------------------------

    def _send(
        self, message: dict, body: Optional[FileBody] = None, last: bool = False
    ) -> None:
        """Queue one message, and the file it announces, on the manager
        connection's FIFO (loop thread).  While the connection is down it
        is dropped: the manager requeues what it lost, and a rejoin lists
        what the cache holds."""
        self._m_frames_out.inc()
        items = () if body is None else (body,)
        self._peer.send(encode_frame(message), *items, last=last)

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

    def _redial(self, deadline: float, delay: float) -> None:
        """Dial the manager address again (loop timer); on a refusal try
        again ``delay`` seconds later, doubling to 5 s, until
        ``deadline``, and then end the worker."""
        left = deadline - time.monotonic()
        try:
            conn = Connection.connect(*self._manager_addr, timeout=max(0.1, min(5.0, left)))
        except OSError:
            left = deadline - time.monotonic()
            if left > 0:
                retry = functools.partial(self._redial, deadline, min(delay * 2, 5.0))
                self.reactor.call_later(min(delay, left), retry)
            else:
                self.shutdown()
            return
        self._peer = self.reactor.adopt(conn.sock)
        self._register(rejoin=True)
        log.info("reconnected to manager at %s:%d", *self._manager_addr)

    def _lookup(self, cache_name: str) -> Optional[str]:
        return self.cache.path_of(cache_name) if self.cache.has(cache_name) else None

    @staticmethod
    def _cache_update(
        cache_name: str, size: int, transfer_id: Optional[str] = None
    ) -> dict:
        msg = {"type": M.CACHE_UPDATE, "cache_name": cache_name, "size": size}
        if transfer_id is not None:
            msg["transfer_id"] = transfer_id
        return msg

    @staticmethod
    def _cache_invalid(
        cache_name: str,
        reason: str,
        transfer_id: Optional[str] = None,
        corrupt: bool = False,
    ) -> dict:
        msg = {"type": M.CACHE_INVALID, "cache_name": cache_name, "reason": reason}
        if transfer_id is not None:
            msg["transfer_id"] = transfer_id
        if corrupt:
            # tells the manager the *source's* copy is suspect, not just
            # the link: corruption feeds replica-loss handling
            msg["corrupt"] = True
        return msg

    @staticmethod
    def _task_done(
        task_id: str,
        exit_code: int,
        output: str,
        outputs: Sequence[tuple[str, int]] = (),
        **report,
    ) -> dict:
        """A task's end, as one message.

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
        return done

    def _count_verify(self, outcome: str, cache_name: str = "") -> None:
        self._m_verify[outcome].inc()
        if outcome == "failed":
            log.warning("content verification failed for %s", cache_name[:48])

    # -- the loop: what the reactor hands over ------------------------------

    def run(self) -> None:
        """Serve manager commands until told to shut down, or until the
        manager is lost past the reconnect window (:meth:`peer_closed`)."""
        self.reactor.start()
        try:
            self.reactor.join()
        finally:
            self.shutdown()  # a loop that died of an error kills what runs too

    def peer_message(self, peer: Peer, msg: dict, payload: Optional[bytes]) -> None:
        """One command (a ``WireError`` closes the connection), or one
        and the bytes it announced."""
        if payload is None:
            mtype = validate(msg)
            if mtype == M.PUT_FILE:
                # written to the staging file as they arrive; a file that
                # cannot be opened closes the connection (framing is lost)
                self._pushed = self.cache.staging_path(msg["cache_name"])
                peer.expect_payload(msg, int(msg["size"]), open(self._pushed, "wb"))
                return
            if mtype in (M.INSTALL_LIBRARY, M.INVOKE):
                peer.expect_payload(msg, int(msg["payload_size"]))
                return
            if mtype == M.SHUTDOWN:
                self._shutdown_ordered = True
                self.shutdown()
                return
        handler = self._handlers.get(msg["type"])
        if handler is None:
            return
        try:
            handler(msg, payload)
        except Exception as exc:  # noqa: BLE001 - every command ends in a report
            report = self._failed(msg, exc)
            if report is not None:
                self._send(report)

    def peer_closed(self, peer: Peer, error: Optional[Exception]) -> None:
        """The manager connection ended: dial again within the reconnect
        window (a crash-safe manager restart), or end the worker.  An
        explicit SHUTDOWN always ends it."""
        if self._crashing:
            os._exit(17)  # no cleanup: a crash leaves everything behind
        if self._closing:
            return
        if self.reconnect_window > 0 and not self._shutdown_ordered:
            log.warning(
                "manager connection lost; retrying for %.0fs", self.reconnect_window
            )
            self._redial(time.monotonic() + self.reconnect_window, 0.2)
        else:
            self.shutdown()

    def _off_loop(self, msg: dict, work, *args, pinned=(), key=None) -> None:
        """Pin ``pinned``, then run the blocking ``work(msg, *args)`` on a
        thread of its own; :meth:`_landed` releases the pins and the
        record ``key`` (a task or a mini task) the loop has made."""
        for n in pinned:
            self._pinned[n] = self._pinned.get(n, 0) + 1
        try:
            threading.Thread(
                target=self._work, args=(msg, work, args, pinned, key), daemon=True
            ).start()
        except RuntimeError as exc:  # no thread to be had: it lands failed now
            self._landed(self._failed(msg, exc), pinned, key)

    def _work(self, msg: dict, work, args: tuple, pinned, key) -> None:
        """Thread body of every blocking step: it ends in a report, what
        ``work`` returns or — whatever it raises — :meth:`_failed`'s (a
        step that died unreported would run forever to the manager)."""
        try:
            report = work(msg, *args)
        except Exception as exc:  # noqa: BLE001 - every command ends in a report
            report = self._failed(msg, exc)
        self.reactor.post(self._landed, report, pinned, key)

    def _landed(self, report: dict, pinned: Sequence[str], key: Optional[str]) -> None:
        """(loop) A blocking step ended: release its pins and records,
        send its report, then relieve cache pressure — after it, so an
        object is announced before its eviction is."""
        for n in pinned:
            if self._pinned[n] > 1:
                self._pinned[n] -= 1
            else:
                del self._pinned[n]
        if key is not None:
            self._procs.pop(key, None)
            self._executing.pop(key, None)
        self._send(report)
        self._enforce_cache_bound()

    def _failed(self, msg: dict, exc: Exception) -> Optional[dict]:
        """The report of a command that raised: ``task_done`` for a
        task, a call or a library install, ``cache_invalid`` for a
        transfer or a mini task."""
        log.exception("%s failed in the worker", msg["type"])
        reason = f"worker: {exc!r}"
        mtype = msg["type"]
        if mtype in (M.FETCH_FILE, M.STAGE_MINITASK, M.PUT_FILE):
            return self._cache_invalid(msg["cache_name"], reason, msg.get("transfer_id"))
        if mtype in (M.EXECUTE, M.INVOKE, M.INSTALL_LIBRARY):
            output = traceback.format_exc()[-1000:]
            return self._task_done(msg["task_id"], 126, output, failure=reason)
        return None

    # -- file movement -----------------------------------------------------

    def _store(self, msg: dict, staged: str) -> dict:
        """A push's bytes are in the staging file: unpack, check, cache."""
        cache_name = msg["cache_name"]
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
            reason = "content verification failed for manager push"
            return self._cache_invalid(
                cache_name, reason, msg.get("transfer_id"), corrupt=True
            )
        level = CacheLevel(int(msg["level"]))
        entry = self.cache.insert_from(staged, cache_name, level, time.time())
        return self._cache_update(cache_name, entry.size, msg.get("transfer_id"))

    def _fetch(self, msg: dict) -> dict:
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
            return self._cache_update(cache_name, entry.size, transfer_id)
        except CorruptTransfer as exc:
            self._m_fetch_failures.inc()
            return self._cache_invalid(cache_name, str(exc), transfer_id, corrupt=True)
        except (TransferFailed, OSError) as exc:
            self._m_fetch_failures.inc()
            return self._cache_invalid(cache_name, str(exc), transfer_id)

    def _handle_send_back(self, msg: dict, _payload=None) -> None:
        """Stream an object to the manager: a file from the loop, a
        directory once a thread has tarred it."""
        path = self._lookup(msg["cache_name"])
        if path is not None and os.path.isdir(path):
            threading.Thread(target=self._pack, args=(msg, path), daemon=True).start()
        else:
            self._send_object(msg, path, "file")

    def _pack(self, msg: dict, path: str) -> None:
        """(thread) Tar a directory object, then have the loop send it."""
        with tempfile.NamedTemporaryFile(suffix=".tar", delete=False) as tf:
            tar_path = tf.name
        try:
            pack_directory(path, tar_path)
        except Exception:  # noqa: BLE001 - a send-back ends in a reply
            log.exception("packing %s failed", msg["cache_name"][:32])
            os.unlink(tar_path)
            tar_path = None
        self.reactor.post(self._send_object, msg, tar_path, "tar")

    def _send_object(self, msg: dict, path: Optional[str], fmt: str) -> None:
        """(loop) Answer a send-back.  The object is opened before it is
        announced: one that vanished since it was cached (evicted or
        unlinked meanwhile) is answered ``found: false``, and one
        removed once open still streams whole from its descriptor."""
        reply = {"type": M.FILE_DATA, "cache_name": msg["cache_name"], "found": False, "size": 0}
        try:
            f = open(path, "rb") if path is not None else None
        except OSError:
            f = None
        if fmt == "tar" and path is not None:
            os.unlink(path)  # an open tar outlives its name
        if f is None:
            self._send(reply)
            return
        size = os.fstat(f.fileno()).st_size
        reply.update(found=True, size=size, format=fmt)
        self._send(reply, FileBody(f, size))

    def _handle_unlink(self, msg: dict, _payload=None) -> None:
        for name in msg["cache_names"]:
            self.cache.remove(name)

    def _handle_cancel(self, msg: dict, _payload=None) -> None:
        task_id = msg["task_id"]
        proc = self._procs.get(task_id)
        if proc is not None:
            self._kill_group(proc)
        elif task_id in self._executing:
            # its child is not registered yet: it is killed when it is
            self._executing[task_id] = True

    @staticmethod
    def _kill_group(proc) -> None:
        """Kill a command's whole process group (it leads its own
        session, so nothing else would: a shell's children outlive it)."""
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    def _track(self, key: str):
        """``run_command``'s ``on_start`` hook (a work thread): have the
        loop list the process under ``key``."""
        return functools.partial(self.reactor.post, self._child_started, key)

    def _child_started(self, key: str, proc) -> None:
        """(loop) List a child for :meth:`_handle_cancel` and
        :meth:`shutdown` — or kill it, if its task was cancelled before
        it started or the worker is shutting down."""
        if self._closing or self._executing.get(key):
            self._kill_group(proc)
        else:
            self._procs[key] = proc

    # -- mini-task staging ------------------------------------------------

    def _handle_stage(self, msg: dict, _payload=None) -> None:
        """Materialize a file by running its mini-task (paper §2.4)."""
        self._off_loop(
            msg, self._stage,
            pinned=[p[1] for p in msg["spec"]["inputs"]],
            key=f"stage-{msg['transfer_id']}",
        )

    def _stage(self, msg: dict) -> dict:
        spec = msg["spec"]
        cache_name = msg["cache_name"]
        level = CacheLevel(int(msg["level"]))
        transfer_id = msg["transfer_id"]
        sandbox = Sandbox(self.sandbox_root, f"stage-{transfer_id}")
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
            return self._cache_update(cache_name, entry.size, transfer_id)
        except (SandboxError, OSError) as exc:
            return self._cache_invalid(cache_name, str(exc), transfer_id)
        finally:
            sandbox.destroy()

    # -- task execution --------------------------------------------------

    def _handle_execute(self, msg: dict, _payload=None) -> None:
        task_id = msg["task_id"]
        log.debug("execute %s: %s", task_id, msg["command"][:60])
        cfg = self.fault_config
        if cfg is not None and cfg.crash_after_tasks is not None:
            self._tasks_executed += 1
            if self._tasks_executed == cfg.crash_after_tasks:
                # die mid-task: the manager never hears TASK_DONE and
                # must recover via connection loss
                self._fault_crash()
                return
        if task_id in self._executing:
            # a restarted manager sent again what its previous life
            # had running here (the journal says READY): the attempt
            # still at it holds the sandbox, and its report — on the
            # connection of the day — answers both commands
            log.info("execute %s: already running here", task_id)
            return
        self._executing[task_id] = False
        inputs = [p[1] for p in msg["inputs"]]
        self._off_loop(msg, self._execute, pinned=inputs, key=task_id)

    def _execute(self, msg: dict) -> dict:
        task_id = msg["task_id"]
        sandbox = Sandbox(self.sandbox_root, task_id)
        staging_started = time.monotonic()
        outcome = None
        failure = None
        produced: list[tuple[str, int]] = []
        # whatever ends the attempt, the sandbox goes before it is
        # reported (and the pins with the report, on the loop): the
        # manager may send the task straight back, and its next attempt
        # takes the same sandbox path
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
            sandbox.destroy()
        if outcome is None:
            # an input vanished since dispatch: the manager stages again
            return self._task_done(task_id, 126, failure, failure="sandbox")
        staging_time = max(0.0, time.monotonic() - staging_started - outcome.execution_time)
        self._m_sandbox.observe(staging_time)
        self._m_exec.observe(outcome.execution_time)
        return self._task_done(
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

    def _install(self, msg: dict, payload: bytes) -> dict:
        """(thread) Start a library instance; the loop lists it first."""
        name = msg["library"]
        handle = LibraryInstanceHandle(name, payload)
        self.reactor.post(self._libraries.__setitem__, name, handle)
        return {"type": M.LIBRARY_READY, "library": name, "task_id": msg["task_id"]}

    def _handle_invoke(self, msg: dict, payload: bytes) -> None:
        library = msg["library"]
        handle = self._libraries.get(library)
        if handle is None or not handle.alive():
            self._send(
                self._task_done(
                    msg["task_id"], 1, f"library {library!r} not running",
                    failure="library",
                )
            )
            return
        inputs = [str(n) for n in msg.get("inputs", [])]
        self._off_loop(msg, self._invoke, handle, payload, pinned=inputs)

    def _invoke(self, msg: dict, handle: LibraryInstanceHandle, payload: bytes) -> dict:
        task_id = msg["task_id"]
        result_name = msg["result_name"]
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
                cn: p
                for cn in msg.get("inputs", [])
                if (p := self._lookup(str(cn))) is not None
            }
            handle.invoke(task_id, msg["function"], args_blob, staged, paths)
            ok, _size, tb = handle.wait(task_id, timeout=self.task_timeout)
            invoke_seconds = time.monotonic() - invoke_started
            self._m_invoke.observe(invoke_seconds)
            if ok:
                level = CacheLevel(int(msg.get("result_level", CacheLevel.WORKFLOW)))
                entry = self.cache.insert_from(staged, result_name, level, time.time())
                return self._task_done(
                    task_id, 0, "", [(result_name, entry.size)],
                    execution_time=invoke_seconds,
                )
            # a failure envelope is never cached: a cached failure
            # under a content-addressed name would shadow a later
            # successful retry (insert_from keeps the existing entry);
            # it is gone before the failure is reported
            if os.path.lexists(staged):
                os.unlink(staged)
            return self._task_done(
                task_id, 1, tb[-1000:],
                failure=tb[-1000:] or "invoke", execution_time=invoke_seconds,
            )
        finally:
            if os.path.lexists(staged):  # an invocation that raised
                os.unlink(staged)

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self) -> None:
        """End the worker (any thread): ordered out, or with the manager
        lost past the reconnect window, nobody is left to hear a result.
        Off the loop, it returns once the loop has ended."""
        self.reactor.post(self._close)
        if self.reactor.running and not self.reactor.on_loop():
            self.reactor.join(timeout=10)

    def _close(self) -> None:
        """(loop) Kill what is running, then stop libraries, the peer
        server and the loop, which writes out what is queued first."""
        if self._closing:
            return
        self._closing = True
        for proc in self._procs.values():
            self._kill_group(proc)
        for handle in self._libraries.values():
            handle.stop()
        self._libraries.clear()
        self._peer_server.stop()
        self.reactor.stop(drain=1.0)
        self._dump_metrics()  # the final counts
