"""The TaskVine manager: what the frames mean, over one transport loop.

All *policy* — placement, transfer planning, replica and staging state
machines, retry/replication/regeneration — lives in
:class:`~repro.core.control_plane.ControlPlane`; this module only
provides the real runtime's *mechanisms* as a
:class:`~repro.core.control_plane.RuntimePort`: wire message encoding,
payload (de)serialization, client sessions, and result delivery back
to the application.  The simulator drives the very same control plane
with virtual-time mechanisms, so any behavioural change belongs in
``control_plane.py``, never here.

Concurrency model: one :class:`~repro.core.reactor.Reactor` thread owns
every socket and every clock of the manager.  It accepts workers and
clients, reassembles their frames and hands complete messages to
:meth:`Manager.peer_message`, which feeds the control plane under the
state lock; it drains one outbound FIFO per peer with non-blocking
sends; and its deadline heap runs the back-off wake-ups, the liveness
sweep, session reaping and the metrics dump.  Nothing here reads or
writes a socket: a command is encoded and appended to its peer's FIFO
(:meth:`Manager._send`), from whichever thread holds the state lock.
Application threads interact through the public API
(declare/submit/wait/fetch) which takes the same lock, so the manager
is safe to drive from ordinary sequential application code.

The reactor is also the only thread that runs the scheduling pump: it
pumps once per sweep, in :meth:`Manager.before_write`, and a pump
requested from any other thread (``submit``, ``cancel``,
``drain_worker``) is *posted* to it — a flag plus one byte on the wake
pipe — rather than run on the caller (:meth:`Manager.request_pump`).
The same call then makes the sweep's journal records durable, so the
frames the sweep queued leave only after the fsync that covers them.
"""

from __future__ import annotations

import collections
import functools
import itertools
import os
import queue
import tempfile
import threading
import time
import uuid
from typing import Callable, Optional, Sequence

from repro.core.control_plane import (
    ControlPlane,
    LibraryState,
    ManagerError,
    StagingJob,
)
from repro.core.files import (
    BufferFile,
    CacheLevel,
    File,
    LocalFile,
    MiniTaskFile,
    TempFile,
    URLFile,
)
from repro.core.library import FunctionCall, Library
from repro.core.naming import Namer
from repro.core.policy import Policy
from repro.core.reactor import FileBody, Peer, Reactor
from repro.core.resources import ResourcePool, Resources
from repro.core.resultref import ResultProxy, scan_refs
from repro.core.task import MiniTask, PythonTask, Task, TaskResult
from repro.core.transfer_table import Transfer
from repro.observe.txnlog import TransactionLogWriter
from repro.protocol import serialization as ser
from repro.protocol.connection import (
    SESSION_CLIENT,
    ProtocolError,
    encode_frame,
    listen,
    session_kind,
)
from repro.protocol.messages import (
    CLIENT_KINDS,
    INLINE_ARGS_MAX,
    M,
    WireError,
    validate,
)
from repro.util.logging import get_logger

__all__ = ["Manager", "ManagerError"]

log = get_logger(__name__)

#: seconds between rewrites of ``metrics_dump_path`` (the daemon's
#: ``status`` view lags by at most this much)
METRICS_DUMP_INTERVAL = 1.0

#: seconds ``close()`` gives the queued farewells (unlinks, shutdowns,
#: notices) to leave before the connections are dropped regardless
CLOSE_DRAIN_SECONDS = 10.0


class _WorkerHandle:
    """Manager-side state of one admitted worker."""

    _ids = itertools.count(1)

    def __init__(
        self,
        peer: Peer,
        capacity: Resources,
        transfer_host: str,
        transfer_port: int,
    ) -> None:
        self.peer = peer
        self.worker_id = f"W{next(self._ids):03d}"
        self.capacity = capacity
        self.pool = ResourcePool(capacity)
        self.transfer_host = transfer_host
        self.transfer_port = transfer_port
        #: shared with the control plane's WorkerState after admission
        self.running: set[str] = set()
        self.last_seen = time.time()


class _LibraryState(LibraryState):
    """Control-plane library state plus the real runtime's payload."""

    def __init__(
        self,
        library: Library,
        resources: Resources,
        slots: int,
        payload: Optional[bytes] = None,
    ) -> None:
        super().__init__(library.name, (), resources, slots)
        self.library = library
        #: client-shipped tables arrive pre-serialized and travel to
        #: workers verbatim; locally created libraries serialize here
        self.payload = (
            payload
            if payload is not None
            else ser.dumps_portable(dict(library.functions))
        )


class _ClientSession:
    """One tenant's attachment to a long-lived manager.

    The session outlives its socket: a client may detach (or crash)
    and later reattach with its token, picking up the notices that
    were buffered in between.  ``loopback`` marks the in-process
    session that backs ``Manager.submit``/``wait`` — it has no socket
    and its completions go to the manager's completion queue.
    """

    _ids = itertools.count(1)

    #: cap on notices buffered for a detached session; beyond it the
    #: oldest are dropped (counted in ``dropped``) so a crashed client
    #: cannot grow the service without bound
    MAX_BUFFERED = 4096

    def __init__(self, tenant: str) -> None:
        self.session_id = f"C{next(self._ids):03d}"
        self.token = uuid.uuid4().hex
        self.tenant = tenant
        self.loopback = False
        #: the attached connection; set and cleared on the reactor thread
        self.peer: Optional[Peer] = None
        #: outstanding task ids owned by this session
        self.tasks: set[str] = set()
        #: notices generated while detached, replayed on reattach
        self.buffered: collections.deque = collections.deque(maxlen=self.MAX_BUFFERED)
        #: cumulative task_result notices emitted for this session;
        #: workflow_done carries it so clients can tell a momentary
        #: empty-queue notice from actual completion of all submits
        self.delivered = 0
        #: notices lost to the buffer cap while detached
        self.dropped = 0
        #: wall-clock time the session lost its attachment (reaping TTL)
        self.detached_at: Optional[float] = None
        #: True when the session was rebuilt from the journal after a
        #: manager restart: its pre-crash notices are gone (counted in
        #: ``dropped``) and the next welcome says so
        self.restored = False


class ManagerService:
    """Session table of service mode: many client workflows, one manager.

    Clients attach over the same reactor the workers use; the first
    frame on a connection decides its role.  Each session owns a
    tenant namespace (the cache names it declared or produced), rides
    the control plane's per-tenant quotas and fair-share queue, and
    shares the content-addressed cache with every other tenant — a
    second workflow declaring identical inputs gets a cache hit and
    zero re-transfer (paper §3.2's point of naming by content).

    All methods run under the manager's state lock.  Protocol errors
    from a client answer with ``client_reject`` (and a
    ``client_rejected`` event) instead of unwinding the connection.
    """

    def __init__(self, mgr: "Manager", project_name: str, password: Optional[str]) -> None:
        self.mgr = mgr
        self.project_name = project_name
        self.password = password
        #: attach-token -> session (reattach looks up here)
        self.sessions: dict[str, _ClientSession] = {}
        #: outstanding task id -> owning session (remote sessions only)
        self.by_task: dict[str, _ClientSession] = {}
        self.loopback = _ClientSession("default")
        self.loopback.loopback = True

    # -- admission -----------------------------------------------------

    def hello(self, peer: Peer, msg: dict) -> None:
        """Authenticate and attach (or reattach) a client connection."""
        tenant = str(msg["tenant"])
        if self.password is not None and msg.get("password") != self.password:
            self._reject_conn(peer, "auth", f"bad password for tenant {tenant!r}")
            return
        token = msg.get("session")
        if token is not None:
            sess = self.sessions.get(token)
            if sess is None or sess.tenant != tenant:
                self._reject_conn(peer, "session", "unknown session token")
                return
            if sess.peer is not None:
                # the new attachment wins.  The stale connection is
                # disowned first, so neither the frames it still has in
                # flight nor its close can reach the session
                sess.peer.owner = None
                sess.peer.close()
        else:
            sess = _ClientSession(tenant)
            self.sessions[sess.token] = sess
            if self.mgr.journal is not None:
                self.mgr.journal.record_session(
                    sess.token, sess.session_id, tenant
                )
        sess.peer = peer
        sess.detached_at = None
        peer.owner = sess
        mgr = self.mgr
        mgr.control.tenant_account(tenant)
        mgr.control.log.emit(
            mgr.now(), "client_attach", worker=sess.session_id, category=tenant
        )
        mgr._send(
            peer,
            {
                "type": M.WELCOME,
                "session": sess.token,
                "tenant": tenant,
                "project": self.project_name,
                "done": sess.delivered,
                "missed": sess.dropped,
                "recovered": sess.restored,
            },
        )
        sess.restored = False
        while sess.buffered:
            mgr._send(peer, sess.buffered.popleft())

    def client_gone(self, sess: _ClientSession) -> None:
        """The session's connection closed: detach, keep the workflow."""
        sess.peer = None
        sess.detached_at = time.time()
        mgr = self.mgr
        mgr.control.log.emit(
            mgr.now(), "client_detach", worker=sess.session_id, category=sess.tenant
        )

    def reap_sessions(self, now: float, ttl: float) -> list[str]:
        """Expire sessions detached longer than ``ttl`` with no work left.

        A session with outstanding tasks is kept (its results would be
        lost); once those drain, the TTL runs from the detach time, so
        a client that crashed and never reattaches is eventually
        forgotten along with its buffered notices.
        """
        expired = [
            s
            for s in self.sessions.values()
            if s.peer is None
            and not s.tasks
            and s.detached_at is not None
            and now - s.detached_at > ttl
        ]
        for sess in expired:
            del self.sessions[sess.token]
            sess.buffered.clear()
            if self.mgr.journal is not None:
                self.mgr.journal.record_session_closed(sess.token)
            self.mgr.control.log.emit(
                self.mgr.now(), "client_expired",
                worker=sess.session_id, category=sess.tenant,
            )
        return [s.session_id for s in expired]

    def restore_sessions(self, journal) -> None:
        """Rebuild the session table from journal records after a restart.

        Each restored session comes back *detached*: the client's old
        socket died with the previous manager life, so it reattaches by
        token exactly like a voluntary detach/reattach.  Notices emitted
        before the crash are gone — every journaled terminal task of the
        session counts into ``dropped`` so the reattach ``welcome``
        reports an honest ``missed`` figure (results stay fetchable by
        task id / cache name).
        """
        mgr = self.mgr
        if journal.max_session_id:
            # new sessions must not reuse a restored session's id
            cur = next(_ClientSession._ids)
            _ClientSession._ids = itertools.count(
                max(cur, journal.max_session_id + 1)
            )
        by_token: dict[str, _ClientSession] = {}
        for token, rec in journal.sessions.items():
            sess = _ClientSession(rec.get("tenant", "default"))
            sess.token = token
            sess.session_id = rec.get("sid", sess.session_id)
            sess.restored = True
            sess.detached_at = time.time()
            self.sessions[token] = sess
            by_token[token] = sess
            mgr.control.log.emit(
                mgr.now(), "session_restored",
                worker=sess.session_id, category=sess.tenant,
            )
        for task in mgr.control.tasks.values():
            sess = by_token.get(task.session_token)
            if sess is None:
                continue
            if task.is_done:
                sess.dropped += 1  # its pre-crash notice did not survive
            else:
                sess.tasks.add(task.task_id)
                self.by_task[task.task_id] = sess

    # -- request dispatch ----------------------------------------------

    def handle_message(
        self, sess: _ClientSession, mtype: str, msg: dict, payload: Optional[bytes]
    ) -> None:
        try:
            if mtype == M.DECLARE_FILE:
                self._declare(sess, msg, payload)
            elif mtype == M.SUBMIT_TASK:
                self._submit_spec(sess, msg, payload)
            elif mtype == M.SUBMIT_DAG:
                self._submit_dag(sess, msg)
            elif mtype == M.FETCH_RESULT:
                self._fetch(sess, msg)
            elif mtype == M.CREATE_LIBRARY:
                self._create_library(sess, msg, payload)
            elif mtype == M.DETACH:
                self._detach(sess)
            else:  # a second client_hello on an attached session
                raise ManagerError(f"unexpected {mtype!r} on an attached session")
        except ManagerError as exc:
            self.reject(sess, "request", str(exc), ref=msg.get("ref"))

    def reject(
        self, sess: _ClientSession, code: str, detail: str, ref=None
    ) -> None:
        """Answer a bad client request without unwinding the connection."""
        mgr = self.mgr
        mgr.control.log.emit(
            mgr.now(), "client_rejected", worker=sess.session_id, category=code
        )
        frame = {"type": M.CLIENT_REJECT, "reason": f"{code}: {detail}"}
        if ref is not None:
            frame["ref"] = ref
        self._reply(sess, frame)

    def _reply(self, sess: _ClientSession, frame: dict, payload=None) -> None:
        """Answer a request on the session's connection, if it still has one."""
        if sess.peer is not None:
            self.mgr._send(sess.peer, frame, payload)

    def _reject_conn(self, peer: Peer, code: str, detail: str) -> None:
        """Refuse a connection before it has a session: the reject is
        the last thing it is sent, and it is closed once that left."""
        self.mgr.control.log.emit(self.mgr.now(), "client_rejected", category=code)
        frame = {"type": M.CLIENT_REJECT, "reason": f"{code}: {detail}"}
        peer.send(encode_frame(frame), last=True)

    # -- declarations ---------------------------------------------------

    def _declare(self, sess: _ClientSession, msg: dict, payload: Optional[bytes]) -> None:
        mgr = self.mgr
        spec = msg["spec"]
        kind = spec.get("kind", "buffer")
        level = CacheLevel.parse(spec.get("level", "workflow"))
        if kind == "buffer":
            f: File = BufferFile(payload if payload is not None else b"", level)
            size = f.size
        elif kind == "url":
            f = URLFile(str(spec["url"]), level)
            size = mgr._url_size(f.url)
        elif kind == "local":
            f = LocalFile(self._local_path(sess, str(spec["path"])), level)
            size = mgr._local_size(f.path)
        else:
            raise ManagerError(f"unknown file kind {kind!r}")
        mgr.namer.assign(f)
        name = f.cache_name
        acct = mgr.control.tenant_account(sess.tenant)
        hit = name in mgr.control.fixed_sources
        if not hit:
            reason = mgr.control.tenant_charge_bytes(sess.tenant, size)
            if reason is not None:
                raise ManagerError(reason)
            mgr.control.declare(f, size)
        elif name not in acct.names:
            # content-identical to another tenant's declaration: the
            # existing replicas serve it, nothing moves again
            mgr.control.tenant_cache_hit(sess.tenant, name, size)
        mgr.control.tenant_add_name(sess.tenant, name)
        self._reply(
            sess,
            {
                "type": M.FILE_DECLARED,
                "ref": msg.get("ref"),
                "cache_name": name,
                "cache_hit": hit,
                "size": size,
            },
        )

    def _local_path(self, sess: _ClientSession, path: str) -> str:
        """Resolve a ``kind="local"`` declaration path for one session.

        The loopback session *is* the in-process application — it may
        name anything the manager process can read.  Remote tenants all
        share one project password, so an unrestricted local declare
        would let any of them read any file on the manager host
        (/etc/passwd, another tenant's data): their paths must resolve
        — symlinks included — inside the operator-configured
        ``client_local_root``, or the declare is refused outright.
        """
        if sess.loopback:
            return os.path.abspath(path)
        root = self.mgr.client_local_root
        if root is None:
            raise ManagerError(
                'file kind "local" is disabled for remote clients '
                "(the service was started without a client_local_root)"
            )
        root = os.path.realpath(root)
        real = os.path.realpath(
            path if os.path.isabs(path) else os.path.join(root, path)
        )
        if real != root and not real.startswith(root + os.sep):
            raise ManagerError(
                f"{path!r} resolves outside the service's client_local_root"
            )
        return real

    # -- submission ------------------------------------------------------

    def _build_task(
        self,
        sess: _ClientSession,
        spec: dict,
        keymap: dict,
        payload: Optional[bytes] = None,
    ) -> Task:
        mgr = self.mgr
        if spec.get("kind") == "call":
            task: Task = self._build_call(spec, payload)
        else:
            task = Task(str(spec["command"]))
        acct = mgr.control.tenant_account(sess.tenant)
        for entry in spec.get("inputs", ()):
            sandbox, src = entry[0], entry[1]
            if isinstance(src, dict):
                f = keymap.get(src.get("key"))
                if f is None:
                    raise ManagerError(f"unknown dag key {src.get('key')!r}")
            else:
                if src not in acct.names:
                    self._adopt_name(sess, acct, src)
                f = mgr.registry.by_name(src)
            task.add_input(f, sandbox)
        for entry in spec.get("outputs", ()):
            if isinstance(entry, (list, tuple)):
                sandbox, key = entry[0], entry[1] if len(entry) > 1 else None
            else:
                sandbox, key = entry, None
            out = TempFile()
            task.add_output(out, sandbox)
            if key is not None:
                keymap[key] = out
        if "resources" in spec:
            task.set_resources(Resources.from_dict(spec["resources"]))
        if "priority" in spec:
            task.set_priority(float(spec["priority"]))
        if "category" in spec:
            task.set_category(str(spec["category"]))
        if spec.get("deterministic"):
            task.set_deterministic(True)
        task.set_tenant(sess.tenant)
        return task

    def _build_call(self, spec: dict, payload: Optional[bytes]) -> FunctionCall:
        """A remote serverless invocation; its arguments travel by size.

        The client pickled its argument tuple.  A small blob (at most
        ``INLINE_ARGS_MAX``) arrived as the trailing ``payload`` of the
        ``submit_task`` frame and leaves again on the ``invoke`` frame —
        the inline form library mode has always used, nothing declared
        or staged.  A larger one was declared as an ordinary buffer
        (``args_cache``) and is listed among the task inputs, so the
        staging planner moves it like any other object.  ``ResultRef``
        arguments are inputs in both forms.  Remote calls are always
        by-reference: only a ref comes back.
        """
        mgr = self.mgr
        lib = str(spec["library"])
        state = mgr.control.libraries.get(lib)
        if state is None:
            raise ManagerError(f"function call names unknown library {lib!r}")
        fn = str(spec["function"])
        if fn not in state.library.functions:
            raise ManagerError(f"library {lib!r} has no function {fn!r}")
        task = FunctionCall(lib, fn)
        task.set_by_reference()
        # either way merkle identity hashes the exact argument bytes, so
        # identical remote calls memo-match across runs and tenants
        args_cache = spec.get("args_cache")
        if args_cache is not None:
            task.args_name = str(args_cache)
            f = (
                mgr.registry.by_name(task.args_name)
                if task.args_name in mgr.registry
                else None
            )
            if isinstance(f, BufferFile):
                task.args_blob = f.data
        elif payload is not None:
            if len(payload) > INLINE_ARGS_MAX:
                raise ManagerError(
                    f"inline call arguments of {len(payload)} bytes exceed "
                    f"{INLINE_ARGS_MAX}; declare them as a buffer (args_cache)"
                )
            task.args_blob = payload
        return task

    def _adopt_name(self, sess: _ClientSession, acct, src: str) -> None:
        """Admit a cache name from outside the tenant's namespace.

        Content-addressed names act as capabilities: a client holding a
        ``ResultRef`` to another tenant's published output may consume
        it, and the shared bytes charge the consuming tenant zero — the
        same ``cache_shared`` accounting as a cross-tenant declare hit.
        Names with no live backing (no replica, no retained payload)
        stay namespace errors.
        """
        mgr = self.mgr
        backed = src in mgr.registry and (
            mgr.replicas.replica_count(src) > 0
            or (mgr.memo_store is not None and mgr.memo_store.has_payload(src))
        )
        if not backed:
            raise ManagerError(
                f"input {src!r} is outside tenant {sess.tenant!r}'s namespace"
            )
        mgr.control.tenant_cache_hit(sess.tenant, src, mgr.sizes.get(src, 0))
        mgr.control.tenant_add_name(sess.tenant, src)

    def _submit(self, sess: _ClientSession, task: Task) -> str:
        mgr = self.mgr
        if not sess.loopback:
            # journaled with the submit so a restarted manager can route
            # the task's outcome back to the reattached session
            task.session_token = sess.token
        tid = mgr._submit_prepared(task)
        for _name, f in task.outputs:
            mgr.control.tenant_add_name(task.tenant, f.cache_name)
        if not sess.loopback:
            sess.tasks.add(tid)
            self.by_task[tid] = sess
        return tid

    def submit_local(self, task: Task) -> str:
        """Loopback client: the in-process API rides the same session path."""
        return self._submit(self.loopback, task)

    def _accept(self, sess: _ClientSession, ref, task: Task, tid: str) -> None:
        self._reply(
            sess,
            {
                "type": M.TASK_ACCEPTED,
                "ref": ref,
                "task_id": tid,
                "outputs": {name: f.cache_name for name, f in task.outputs},
            },
        )

    def _submit_spec(
        self, sess: _ClientSession, msg: dict, payload: Optional[bytes]
    ) -> None:
        task = self._build_task(sess, msg["spec"], {}, payload)
        tid = self._submit(sess, task)
        self._accept(sess, msg.get("ref"), task, tid)

    def _submit_dag(self, sess: _ClientSession, msg: dict) -> None:
        specs = msg["tasks"]
        if not isinstance(specs, list) or not specs:
            raise ManagerError("submit_dag needs a non-empty task list")
        keymap: dict = {}
        tasks = [self._build_task(sess, spec, keymap) for spec in specs]
        acct = self.mgr.control.tenant_account(sess.tenant)
        headroom = acct.task_headroom()
        if headroom is not None and headroom < len(tasks):
            raise ManagerError(
                f"tenant {sess.tenant!r} task quota headroom {headroom} "
                f"cannot admit a {len(tasks)}-task dag"
            )
        ref = msg.get("ref")
        for i, task in enumerate(tasks):
            tid = self._submit(sess, task)
            self._accept(sess, f"{ref}[{i}]", task, tid)

    # -- serverless -------------------------------------------------------

    def _create_library(
        self, sess: _ClientSession, msg: dict, payload: Optional[bytes]
    ) -> None:
        """Install a client-shipped library of serverless functions.

        The serialized function table is never unpickled here — the
        manager keeps a name-level shell for validation and routing and
        forwards the opaque payload to workers verbatim.  Re-creating a
        library whose name and function set already exist is idempotent
        (a cache hit in spirit), so every session of a tenant — and a
        reattaching client — can issue the same ``create_library``
        unconditionally.
        """
        mgr = self.mgr
        name = str(msg["library"])
        names = [str(n) for n in msg.get("functions", ())]
        existing = mgr.control.libraries.get(name)
        if existing is not None:
            if set(names) != set(existing.library.functions):
                raise ManagerError(
                    f"library {name!r} already exists with a different function table"
                )
        else:
            if not payload:
                raise ManagerError(
                    f"create_library {name!r} carries no function table"
                )
            library = Library.from_names(name, names)
            mgr.control.libraries[name] = _LibraryState(
                library,
                Resources(cores=1),
                int(msg.get("slots", 1)),
                payload=payload,
            )
            mgr.control.install_library(name)
        self._reply(
            sess,
            {
                "type": M.LIBRARY_CREATED,
                "ref": msg.get("ref"),
                "library": name,
                "functions": names,
            },
        )

    # -- completion and retrieval ----------------------------------------

    def task_delivered(self, task: Task, ref) -> Optional[_ClientSession]:
        """Route a completed task to its owning remote session; ``ref``
        is the ``ResultRef`` of a call that finished by reference.

        Returns None when the task belongs to the in-process loopback
        path (the caller then feeds the completion queue as before).
        """
        sess = self.by_task.pop(task.task_id, None)
        if sess is None:
            return None
        sess.tasks.discard(task.task_id)
        sess.delivered += 1
        r = task.result
        notice = {
            "type": M.TASK_RESULT,
            "task_id": task.task_id,
            "state": task.state.value,
            "exit_code": r.exit_code if r else -1,
            "failure": r.failure if r else None,
            "output": (r.output or "")[-2000:] if r else "",
            "outputs": {name: f.cache_name for name, f in task.outputs},
        }
        if ref is not None:
            # the value never travels in the notice: consumers get a
            # ref and resolve (or chain) it through the fetch plane
            notice["result_ref"] = ref.to_dict()
        self._notify(sess, notice)
        if not sess.tasks:
            # "nothing outstanding" can be momentary under incremental
            # submission (task 1 done while task 2's submit is in
            # flight); the notice carries the cumulative delivery count
            # so the client can match it against its accepted submits
            # instead of trusting the first empty transition.
            mgr = self.mgr
            mgr.control.log.emit(mgr.now(), "workflow_done", category=sess.tenant)
            self._notify(
                sess,
                {
                    "type": M.WORKFLOW_DONE,
                    "tenant": sess.tenant,
                    "done": sess.delivered,
                },
            )
        return sess

    def _notify(self, sess: _ClientSession, frame: dict) -> None:
        if sess.peer is not None:
            self.mgr._send(sess.peer, frame)
        else:
            if len(sess.buffered) == sess.buffered.maxlen:
                sess.dropped += 1  # deque evicts the oldest notice
            sess.buffered.append(frame)

    def _fetch(self, sess: _ClientSession, msg: dict) -> None:
        mgr = self.mgr
        name = str(msg["cache_name"])
        acct = mgr.control.tenant_account(sess.tenant)
        if name not in acct.names:
            raise ManagerError(
                f"{name!r} is outside tenant {sess.tenant!r}'s namespace"
            )
        f = mgr.registry.by_name(name) if name in mgr.registry else None
        if isinstance(f, BufferFile):
            self._send_file_data(sess, name, f.data)
            return
        # everything else rides the fetch plane: live holders first
        # (retrying across them if one dies mid-serve), then the memo
        # store's retained payload, then lineage regeneration; only
        # when all three come up empty does the client see found=False
        mgr.control.fetch(
            name, lambda _wid, payload: self._send_file_data(sess, name, payload)
        )

    def _send_file_data(
        self, sess: _ClientSession, name: str, payload: Optional[bytes]
    ) -> None:
        frame = {
            "type": M.FILE_DATA,
            "cache_name": name,
            "found": payload is not None,
            "size": len(payload or b""),
        }
        # detached meanwhile: the replica stays fetchable on reattach
        self._reply(sess, frame, payload)

    def _detach(self, sess: _ClientSession) -> None:
        self._reply(sess, {"type": M.DETACHED, "session": sess.token})
        # the client closes its end after the ack; the reactor's EOF
        # unwind then runs client_gone(), which buffers further notices


class Manager:
    """Coordinates workers to execute a declared workflow (paper Fig. 1)."""

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        policy: Policy = Policy(),
        seed: Optional[int] = None,
        worker_liveness_timeout: Optional[float] = 60.0,
        txn_log_path: Optional[str] = None,
        metrics_dump_path: Optional[str] = None,
        project_name: str = "repro",
        password: Optional[str] = None,
        client_local_root: Optional[str] = None,
        client_session_ttl: Optional[float] = 3600.0,
        memo_dir: Optional[str] = None,
        memo_payload_limit: Optional[int] = None,
        journal_dir: Optional[str] = None,
        recovery_grace: float = 10.0,
    ) -> None:
        # bind first: nothing durable or threaded (journal, txn log)
        # may exist before the listener does, or a taken port would
        # leave a live half-manager behind the OSError
        listener = listen(host, port)
        self.host, self.port = listener.getsockname()
        #: the one thread that touches a socket or a clock; started at
        #: the end of construction (journal restore pumps inline)
        self.reactor = Reactor(listener, self)
        self._lock = threading.RLock()
        self._t0 = time.time()
        #: persistent memoization store; None disables memoization
        self.memo_store = None
        if memo_dir is not None:
            from repro.memo.store import MemoStore

            self.memo_store = MemoStore(memo_dir, payload_limit=memo_payload_limit)
        #: durable write-ahead journal; None runs the manager in-memory
        #: only (the historical behavior)
        self.journal = None
        if journal_dir is not None:
            from repro.core.journal import ControlPlaneJournal

            self.journal = ControlPlaneJournal(journal_dir)
        self.recovery_grace = recovery_grace
        self.control = ControlPlane(
            self,
            policy,
            seed=seed if seed is not None else 0,
            memo=self.memo_store,
            journal=self.journal,
        )
        log.info("manager %s:%d policy %s", self.host, self.port, policy.asdict())
        #: directory remote clients' ``kind="local"`` declarations must
        #: resolve inside; None (the default) disables them entirely
        self.client_local_root = client_local_root
        #: idle seconds after which a detached session with no
        #: outstanding tasks is reaped; None keeps sessions forever
        self.client_session_ttl = client_session_ttl
        #: client-session table (service mode); the in-process API is
        #: its loopback session, so one code path owns all submissions
        self.service = ManagerService(self, project_name, password)
        #: streams every event to disk as it is emitted (live tailable)
        self._txn_writer: Optional[TransactionLogWriter] = None
        if txn_log_path is not None:
            # a recovering manager *appends* a new @header segment so
            # the crashed life's events stay in place for forensics
            self._txn_writer = TransactionLogWriter(
                txn_log_path,
                runtime="real",
                resume=self.journal is not None and self.journal.recovered,
            )
            self.control.log.attach(self._txn_writer)
        self._metrics_dump_path = metrics_dump_path
        self.namer = Namer(seed=seed)
        self.namer.header_fetcher = self._url_headers

        self.workers: dict[str, _WorkerHandle] = {}
        self._completed: "queue.Queue[Task]" = queue.Queue()

        # network traffic accounting (docs/observability.md "net.*")
        m = self.control.metrics
        self._m_frames_in = m.counter("net.frames_in")
        self._m_frames_out = m.counter("net.frames_out")
        self._m_messages_in = m.counter("net.messages_in")
        self._m_batch_fill = m.histogram("net.batch_fill")
        self._m_loop = m.histogram("net.reactor_loop_seconds")
        self._m_queued = m.gauge("net.outbound_queued_bytes")

        #: a pump is owed: the reactor runs it at the end of its sweep.
        #: Set by request_pump from any thread (under _lock); while it is
        #: True a wake byte is in the pipe or the reactor is mid sweep
        self._pump_wanted = False
        #: cache name of a declared directory -> the one tar every push
        #: of it streams (removed at close)
        self._packed: dict[str, str] = {}

        #: True when this life restored state journaled by a prior one
        self.recovered = False
        if self.journal is not None:
            with self._lock:
                # (the pump this asks for is the reactor's first, below:
                # nothing is delivered before the sessions are back)
                self.recovered = self.control.recover(recovery_grace)
                if self.recovered:
                    self.service.restore_sessions(self.journal)
                self.journal.record_meta(
                    port=self.port, project=project_name, policy=policy.asdict()
                )
        #: seconds of silence (no message, not even a heartbeat) after
        #: which a worker is declared dead; None disables the sweep
        self.worker_liveness_timeout = worker_liveness_timeout
        timeouts = [
            t for t in (worker_liveness_timeout, client_session_ttl) if t is not None
        ]
        if timeouts:
            interval = max(1.0, min(timeouts) / 4)
            self.reactor.call_later(interval, self._liveness_sweep, every=interval)
        if metrics_dump_path is not None:
            self.reactor.call_later(
                METRICS_DUMP_INTERVAL, self._dump_metrics, every=METRICS_DUMP_INTERVAL
            )
        if self.journal is not None:
            # records the reactor journals during a sweep share one
            # fsync, taken in before_write ahead of the sweep's frames
            # (due on the first sweep, before any peer can be read)
            self.reactor.call_later(0.0, self.journal.begin_group_commit)
        self.reactor.start()

    # -- control-plane state views (single source of truth) --------------

    registry = property(lambda self: self.control.registry)
    replicas = property(lambda self: self.control.replicas)
    transfers = property(lambda self: self.control.transfers)
    scheduler = property(lambda self: self.control.scheduler)
    log = property(lambda self: self.control.log)
    metrics = property(lambda self: self.control.metrics)
    categories = property(lambda self: self.control.categories)
    tasks = property(lambda self: self.control.tasks)
    fixed_sources = property(lambda self: self.control.fixed_sources)
    sizes = property(lambda self: self.control.sizes)
    libraries = property(lambda self: self.control.libraries)
    _closed = property(lambda self: self.control.closed)

    # ------------------------------------------------------------------
    # RuntimePort: real-runtime mechanisms behind the control plane
    # ------------------------------------------------------------------

    def now(self) -> float:
        return time.time() - self._t0

    def request_pump(self) -> None:
        """Ask for a scheduling pass (callers hold the state lock).

        The reactor is the one pumping thread: it pumps once at the end
        of each event sweep, so K completions in a sweep — or K submits
        from an application thread while it sleeps or sweeps — cost one
        scheduling pass, not K, and the commands that pass issues leave
        as one write per worker.  A request only raises the flag and,
        when it comes from another thread, wakes the reactor; the wake
        is sent on the False→True edge alone, so a burst costs one byte
        (one sent before the reactor starts waits in the pipe for its
        first sweep).
        """
        if self._pump_wanted:
            return
        self._pump_wanted = True
        if not self.reactor.on_loop():
            self.reactor.wake()

    def schedule_pump(self, delay: float) -> None:
        """Wake the control plane after ``delay`` wall seconds.

        Used by retry/requeue backoffs: a held-off transfer or task
        needs a pump when its holdoff expires even if no worker message
        arrives in the meantime.
        """
        self.reactor.call_later(delay, self._timed_pump)

    def _timed_pump(self) -> None:
        with self._lock:
            if not self.control.closed:
                self.request_pump()

    def send_fetch(self, record: Transfer, level: CacheLevel) -> None:
        if record.source.startswith("url:"):
            f = self.registry.by_name(record.cache_name)
            assert isinstance(f, URLFile)
            source = {"kind": "url", "url": f.url}
        else:
            src = self.workers[record.source]
            source = {
                "kind": "worker",
                "host": src.transfer_host,
                "port": src.transfer_port,
            }
        self._tell(
            record.dest_worker,
            {
                "type": M.FETCH_FILE,
                "cache_name": record.cache_name,
                "source": source,
                "transfer_id": record.transfer_id,
                "level": int(level),
            },
        )

    def run_minitask(self, job: StagingJob) -> None:
        mini = job.file.mini_task
        spec = {
            "command": mini.command,
            "inputs": [
                [sandbox_name, dep.cache_name] for sandbox_name, dep in mini.inputs
            ],
            "output_name": mini.output_name,
            "env": mini.env,
            "resources": mini.resources.to_dict(),
        }
        self._tell(
            job.worker_id,
            {
                "type": M.STAGE_MINITASK,
                "cache_name": job.file.cache_name,
                "spec": spec,
                "level": int(job.file.cache_level),
                "transfer_id": job.transfer_id,
            },
        )

    def start_task(self, task: Task) -> None:
        worker_id = task.worker_id or ""
        if isinstance(task, FunctionCall):
            msg = {
                "type": M.INVOKE,
                "task_id": task.task_id,
                "library": task.library_name,
                "function": task.function_name,
            }
            rf = task.result_output()
            msg["result_name"] = rf.cache_name
            msg["result_level"] = int(rf.cache_level)
            msg["inputs"] = [f.cache_name for _n, f in task.inputs]
            if task.args_name is not None:
                # staged form: the argument blob is one of the inputs,
                # so nothing but the control frame goes over this hop
                msg["args_cache"] = task.args_name
                msg["payload_size"] = 0
                self._tell(worker_id, msg)
                return
            blob = task.args_blob
            if blob is None:
                from repro.worker.library_instance import pack_invocation

                blob = pack_invocation(task.args, dict(task.kwargs))
            msg["payload_size"] = len(blob)
            self._tell(worker_id, msg, blob)
            return
        self._tell(
            worker_id,
            {
                "type": M.EXECUTE,
                "task_id": task.task_id,
                "command": task.command,
                "inputs": [[name, f.cache_name] for name, f in task.inputs],
                "outputs": [
                    [name, f.cache_name, int(f.cache_level)]
                    for name, f in task.outputs
                ],
                "env": task.env,
                "resources": task.resources.to_dict(),
            },
        )

    def cancel_task(self, task: Task) -> None:
        self._tell(
            task.worker_id or "", {"type": M.CANCEL_TASK, "task_id": task.task_id}
        )

    def launch_library(self, lib: LibraryState, worker_id: str) -> None:
        assert isinstance(lib, _LibraryState)
        self._tell(
            worker_id,
            {
                "type": M.INSTALL_LIBRARY,
                "library": lib.library.name,
                "functions": lib.library.function_names(),
                "payload_size": len(lib.payload),
                "task_id": f"lib:{lib.library.name}",
                "slots": lib.slots,
            },
            lib.payload,
        )

    def store_replica(
        self, worker_id: str, cache_name: str, size: int, level: CacheLevel
    ) -> None:
        pass  # real workers persist to disk before reporting cache-update

    def delete_replica(self, worker_id: str, cache_name: str) -> None:
        self._tell(worker_id, {"type": M.UNLINK, "cache_name": cache_name})

    def ask_holder(self, worker_id: str, cache_name: str) -> None:
        self._tell(worker_id, {"type": M.SEND_BACK, "cache_name": cache_name})

    def finish_drain(self, worker_id: str) -> None:
        """RuntimePort drain hook: every sole-holder object has migrated
        off the worker, so order it out.  The shutdown travels the
        normal command path; the worker's run loop exits on it, the
        socket closes, and ``_on_worker_gone`` → ``worker_left`` then
        finds every needed replica already backed by a survivor."""
        self._tell(worker_id, {"type": M.SHUTDOWN})

    def deliver(self, task: Task, ref) -> None:
        if self.service.task_delivered(task, ref) is None:
            # loopback (in-process) session: ``output()`` hands back a
            # lazy proxy whose first dereference resolves through the
            # fetch plane; the application observes the completion the
            # moment it is queued, so its record must be on disk first
            if ref is not None:
                task.set_output_value(
                    ResultProxy(ref, fetcher=self._fetch_result_bytes)
                )
            if self.journal is not None:
                self.journal.sync()
            self._completed.put(task)

    # -- memoization mechanisms ------------------------------------------

    def memo_persist(self, task: Task, merkle: str, outputs) -> None:
        """Retain ``outputs`` of a freshly recorded entry as payloads.

        Each is pulled back from a live replica through the fetch plane
        — best effort, so retention never re-runs a producer — and the
        bytes that arrive are stored with their digest stamped into the
        entry.  An output that never lands simply keeps ``md5=None``
        and the entry stays replica-backed only.
        """
        store = self.memo_store
        for out in outputs:

            def retain(_worker_id, payload, name=out.cache_name) -> None:
                if payload is not None:
                    store.set_output_md5(
                        merkle, name, store.store_payload(name, payload)
                    )

            self.control.fetch(out.cache_name, retain, True)  # best effort

    # ------------------------------------------------------------------
    # public API: declarations
    # ------------------------------------------------------------------

    def declare_local(self, path: str, cache: "CacheLevel | str" = CacheLevel.WORKFLOW) -> LocalFile:
        """Declare a file or directory from the shared filesystem."""
        f = LocalFile(os.path.abspath(path), cache)
        with self._lock:
            self.namer.assign(f)
            self.control.declare(f, self._local_size(f.path))
            if os.path.isdir(f.path):
                self._tar_of(f)  # packed here, once, not per destination
        return f

    def _tar_of(self, f: LocalFile) -> str:
        """The one tar every push of a declared directory streams,
        packed on first use (callers hold the state lock)."""
        tar_path = self._packed.get(f.cache_name)
        if tar_path is None:
            from repro.worker.transfers import pack_directory

            with tempfile.NamedTemporaryFile(suffix=".tar", delete=False) as tf:
                tar_path = self._packed[f.cache_name] = tf.name
            pack_directory(f.path, tar_path)
        return tar_path

    @staticmethod
    def _local_size(path: str) -> int:
        if os.path.isdir(path):
            return sum(
                os.path.getsize(os.path.join(r, name))
                for r, _d, files in os.walk(path)
                for name in files
            )
        return os.path.getsize(path) if os.path.exists(path) else 0

    def declare_buffer(
        self, data: "bytes | str", cache: "CacheLevel | str" = CacheLevel.WORKFLOW
    ) -> BufferFile:
        """Declare literal bytes from the application's memory."""
        f = BufferFile(data, cache)
        with self._lock:
            self.namer.assign(f)
            self.control.declare(f)
        return f

    def declare_url(self, url: str, cache: "CacheLevel | str" = CacheLevel.WORKFLOW) -> URLFile:
        """Declare a remote object; workers fetch it on demand."""
        f = URLFile(url, cache)
        with self._lock:
            self.namer.assign(f)
            self.control.declare(f, self._url_size(url))
        return f

    @staticmethod
    def _url_size(url: str) -> int:
        if url.startswith("file://"):
            path = url[len("file://"):]
            return Manager._local_size(path) if os.path.exists(path) else 0
        return 0

    @staticmethod
    def _url_headers(url: str) -> dict[str, str]:
        """Pseudo-headers for naming: stat-derived for ``file://`` URLs."""
        if url.startswith("file://"):
            path = url[len("file://"):]
            st = os.stat(path)
            return {
                "ETag": f"{st.st_ino:x}-{st.st_size:x}",
                "Last-Modified": str(st.st_mtime_ns),
            }
        try:
            import urllib.request

            req = urllib.request.Request(url, method="HEAD")
            with urllib.request.urlopen(req, timeout=30) as resp:
                return dict(resp.headers.items())
        except OSError:
            return {}

    def declare_temp(self) -> TempFile:
        """Declare an ephemeral file that never leaves the cluster."""
        f = TempFile()
        with self._lock:
            self.namer.assign(f)
            self.control.declare(f)
        return f

    def declare_minitask(
        self, mini: MiniTask, cache: "CacheLevel | str" = CacheLevel.WORKFLOW
    ) -> MiniTaskFile:
        """Wrap a task as an on-demand file transformation (paper Fig. 6)."""
        for _, dep in mini.inputs:
            if dep.cache_name is None:
                raise ManagerError(
                    f"mini task input {dep.file_id} must be declared first"
                )
        f = MiniTaskFile(mini, cache)
        with self._lock:
            self.namer.assign(f)
            self.control.declare(f)
        return f

    def declare_untar(
        self, tarball: File, cache: "CacheLevel | str" = CacheLevel.WORKFLOW
    ) -> MiniTaskFile:
        """Built-in unpack mini task (paper Fig. 3 ``declare_untar``)."""
        mini = MiniTask("mkdir unpacked && tar -xf input.tar -C unpacked")
        mini.set_output_name("unpacked")
        mini.add_input(tarball, "input.tar")
        return self.declare_minitask(mini, cache)

    # ------------------------------------------------------------------
    # public API: tasks
    # ------------------------------------------------------------------

    def submit(self, task: Task) -> str:
        """Submit a task for execution; returns its id.

        Returns once the task is validated, named and queued (``READY``);
        placement happens on the reactor's next sweep, so a burst of
        submits costs one scheduling pass rather than one each.

        Routes through the service's loopback session, so in-process
        submissions ride the same quota/accounting path as remote
        clients while keeping this signature unchanged.
        """
        with self._lock:
            return self.service.submit_local(task)

    def _submit_prepared(self, task: Task) -> str:
        """Give a python task or a call the files its mechanism rides
        on, then hand it to the plane, which admits or refuses it
        (callers hold the state lock)."""
        if isinstance(task, PythonTask):
            self._prepare_python_task(task)
        if isinstance(task, FunctionCall):
            if task.library_name not in self.control.libraries:
                raise ManagerError(
                    f"function call names unknown library {task.library_name!r}"
                )
            self._prepare_function_call(task)
        return self.control.submit(task, self.namer)

    def _prepare_python_task(self, task: PythonTask) -> None:
        if any(n == task.RESULT_NAME for n, _f in task.outputs):
            return  # prepared by an earlier submit (refused, or being repeated)
        payload = ser.dumps_portable(
            {"func": task.func, "args": task.args, "kwargs": task.kwargs}
        )
        pf = BufferFile(payload, CacheLevel.TASK)
        self.namer.assign(pf)
        self.control.declare(pf)
        task.inputs.append((task.PAYLOAD_NAME, pf))
        result = TempFile()
        # named (memo-aware) and declared by control.submit
        task.outputs.append((task.RESULT_NAME, result))

    def _prepare_function_call(self, task: FunctionCall) -> None:
        """Attach the by-reference result output and proxy-argument inputs.

        Proxy arguments become ordinary task inputs, so the staging
        planner moves the referenced bytes worker-to-worker (peer
        transfers) and the invocation dereferences them from the local
        cache — result payloads never route through the manager.
        """
        for ref in scan_refs((task.args, dict(task.kwargs))):
            if any(f.cache_name == ref.cache_name for _n, f in task.inputs):
                continue
            if ref.cache_name not in self.registry:
                raise ManagerError(
                    f"proxy argument {ref.cache_name} references an unknown object"
                )
            task.add_input(self.registry.by_name(ref.cache_name), ref.cache_name)
        if not any(n == FunctionCall.RESULT_NAME for n, _f in task.outputs):
            task.add_output(TempFile(), FunctionCall.RESULT_NAME)

    def wait(self, timeout: Optional[float] = None) -> Optional[Task]:
        """Block until some task completes; None on timeout.

        Completed tasks may have succeeded or failed — inspect
        ``task.result``/``task.state``, mirroring the TaskVine API.
        """
        try:
            return self._completed.get(timeout=timeout)
        except queue.Empty:
            return None

    def empty(self) -> bool:
        """True when no submitted task remains incomplete."""
        with self._lock:
            return self.control.outstanding == 0

    def cancel(self, task: Task) -> bool:
        """Cancel a submitted task; returns False if already terminal.

        Queued tasks are withdrawn immediately; a running task's whole
        process group is killed at the worker.  A cancelled task is
        delivered through :meth:`wait` with state ``CANCELLED``.
        """
        with self._lock:
            return self.control.cancel(task)

    def run_until_done(self, timeout: float = 300.0) -> list[Task]:
        """Convenience driver: wait for every outstanding task.

        Raises :class:`ManagerError` if the deadline passes first.
        """
        deadline = time.time() + timeout
        finished = []
        while not self.empty():
            remaining = deadline - time.time()
            if remaining <= 0:
                raise ManagerError(
                    f"workflow did not finish within {timeout}s "
                    f"({self.control.outstanding} tasks outstanding)"
                )
            t = self.wait(timeout=min(1.0, remaining))
            if t is not None:
                finished.append(t)
        while True:  # drain anything that raced the empty() check
            t = self.wait(timeout=0.01)
            if t is None:
                break
            finished.append(t)
        return finished

    # -- serverless ----------------------------------------------------

    def create_library(
        self,
        name: str,
        functions: Sequence[Callable],
        resources: Resources = Resources(cores=1),
        function_slots: int = 1,
    ) -> Library:
        """Define a library of Python functions for serverless calls."""
        library = Library(name, functions)
        with self._lock:
            if name in self.control.libraries:
                raise ManagerError(f"library {name!r} already created")
            self.control.libraries[name] = _LibraryState(
                library, resources, function_slots
            )
        return library

    def install_library(self, name: str) -> None:
        """Deploy the library to every current and future worker."""
        with self._lock:
            self.control.install_library(name)

    # -- tenancy ---------------------------------------------------------

    def set_tenant_quota(
        self,
        tenant: str,
        task_quota: Optional[int] = None,
        byte_quota: Optional[int] = None,
    ) -> None:
        """Override one tenant's quotas (None = unlimited dimension)."""
        with self._lock:
            self.control.set_tenant_quota(tenant, task_quota, byte_quota)

    # -- data retrieval ---------------------------------------------------

    def fetch_bytes(self, f: File, timeout: float = 60.0) -> bytes:
        """Fetch a file's content back to the application.

        Buffers are returned directly; local files are read from disk;
        anything else is pulled from a worker replica.  Directory
        objects are returned as an uncompressed tar stream.
        """
        if isinstance(f, BufferFile):
            return f.data
        if isinstance(f, LocalFile):
            with open(f.path, "rb") as fh:
                return fh.read()
        name = f.cache_name
        if name is None:
            raise ManagerError(f"file {f.file_id} was never declared")
        return self._fetch_result_bytes(name, timeout=timeout)

    def _fetch_result_bytes(self, cache_name: str, timeout: float = 60.0) -> bytes:
        """Resolve a cache name to bytes through the fetch plane.

        This is the fetcher bound into every published
        :class:`ResultProxy` and the backend of :meth:`fetch_bytes`:
        live holders are asked first (retrying across them if one dies
        or denies mid-serve), then the memo store's retained payload,
        then lineage regeneration.  Raises when every source comes up
        empty or the deadline passes.
        """
        waiter: "queue.Queue[Optional[bytes]]" = queue.Queue()
        with self._lock:
            self.control.fetch(
                cache_name, lambda _wid, payload: waiter.put(payload)
            )
        try:
            data = waiter.get(timeout=timeout)
        except queue.Empty:
            raise ManagerError(f"timed out fetching {cache_name}") from None
        if data is None:
            raise ManagerError(f"no worker holds {cache_name}")
        return data

    # -- lifecycle --------------------------------------------------------

    def drain_worker(self, worker_id: str) -> bool:
        """Gracefully drain one worker (elastic scale-down surface).

        Manager-initiated twin of the worker's ``draining`` announce:
        a fleet supervisor calls this to retire a worker without losing
        its sole-holder cache objects.  Returns False when the worker
        is unknown or already draining.
        """
        with self._lock:
            return self.control.drain_worker(worker_id)

    def close(self, shutdown_workers: bool = True) -> None:
        """Garbage-collect workflow files and release all connections.

        The unlinks, shutdowns and notices queued here are the last
        things the peers are sent: the reactor writes them out (against
        one deadline for the whole fleet) and then drops every socket.
        """
        with self._lock:
            if self.control.closed:
                return
            self.control.end_workflow()
            if shutdown_workers:
                for wid in self.workers:
                    self._tell(wid, {"type": M.SHUTDOWN})
            # under the lock: admission is refused once ``closed`` is
            # set, and no message is handed over once this returns
            self.reactor.stop(drain=CLOSE_DRAIN_SECONDS)
        self._teardown()

    def crash(self) -> None:
        """Die abruptly, as ``kill -9`` would: no workflow GC, no
        SHUTDOWN to workers, no farewell events, nothing queued sent.

        Connections are simply severed — workers with a
        ``--reconnect`` window will back off and re-register with the
        next manager life, whose journal replay (the same
        ``journal_dir``) is the only record this life leaves behind.
        Used by crash-recovery tests; operational crashes need no help.
        """
        with self._lock:
            if self.control.closed:
                return
            self.control.closed = True
            self.reactor.stop()
        self._teardown()

    def _teardown(self) -> None:
        """Wait for the reactor to release every socket and timer, then
        the files this life held open."""
        self.reactor.join(timeout=CLOSE_DRAIN_SECONDS + 10)
        for tar_path in self._packed.values():
            try:
                os.unlink(tar_path)
            except OSError:
                pass
        self._dump_metrics()
        if self._txn_writer is not None:
            self._txn_writer.close()
        # the journal and txn log hold only already-fsynced appends; a
        # crash() leaves exactly the bytes a real SIGKILL would
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "Manager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # worker admission and message handling
    # ------------------------------------------------------------------

    def _liveness_sweep(self) -> None:
        """Reap silent workers and long-abandoned client sessions (a
        repeating reactor timer)."""
        now = time.time()
        if self.worker_liveness_timeout is not None:
            self._reap_stale(now)
        self._reap_sessions(now)

    def _dump_metrics(self) -> None:
        """Rewrite ``metrics_dump_path`` (a repeating reactor timer, and
        once more at close so a short life leaves a full snapshot)."""
        if self._metrics_dump_path is not None:
            try:
                self.control.metrics.dump(self._metrics_dump_path)
            except OSError:
                pass  # the directory vanished under a dying daemon

    def _find_stale(self, now: float) -> list[_WorkerHandle]:
        """Workers silent past the liveness timeout as of ``now``."""
        with self._lock:
            return [
                h for h in self.workers.values()
                if now - h.last_seen > self.worker_liveness_timeout
            ]

    def _reap_stale(self, now: float) -> list[str]:
        """Declare every stale worker dead; returns their ids.

        Takes its clock as an argument so liveness handling is testable
        against a pinned one.  The reactor closes the connection and
        unwinds it like any other departure.
        """
        stale = self._find_stale(now)
        for handle in stale:
            log.warning(
                "worker %s silent for %.0fs; declaring it dead",
                handle.worker_id, now - handle.last_seen,
            )
            handle.peer.close()
        return [h.worker_id for h in stale]

    def _reap_sessions(self, now: float) -> list[str]:
        """Expire long-detached client sessions (always-on hygiene)."""
        if self.client_session_ttl is None:
            return []
        with self._lock:
            return self.service.reap_sessions(now, self.client_session_ttl)

    def _register_worker(self, peer: Peer, msg: dict) -> _WorkerHandle:
        """Admit a worker: create its handle and tell the control plane."""
        handle = _WorkerHandle(
            peer,
            Resources.from_dict(msg["capacity"]),
            msg.get("transfer_host", "127.0.0.1"),
            int(msg["transfer_port"]),
        )
        handle.workdir = msg.get("workdir")
        with self._lock:
            self.workers[handle.worker_id] = handle
            log.info(
                "worker %s %s (%s cores, transfer port %d, %d cached objects)",
                handle.worker_id,
                "rejoined" if msg.get("rejoin") else "joined",
                handle.capacity.cores,
                handle.transfer_port, len(msg.get("cached", [])),
            )
            # adopt persisted worker-lifetime cache contents (hot cache)
            state = self.control.worker_joined(
                handle.worker_id,
                handle.pool,
                cached=[
                    (name, int(size)) for name, size, _level in msg.get("cached", [])
                ],
                rejoin=bool(msg.get("rejoin")),
            )
            handle.running = state.running
        return handle

    # -- reactor handler: what the transport hands over ----------------------

    def before_write(self) -> None:
        """Once per reactor sweep, after its reads and timers: run the
        pump the sweep owes, then make the sweep's journal records
        durable — the one gate in front of every socket write."""
        with self._lock:
            if self._pump_wanted:
                self._pump_wanted = False
                if not self.control.closed:
                    self.control.pump()
                if self._pump_wanted:
                    # asked for by the pump itself (a requeue, a memo
                    # completion): owed to the next sweep
                    self.reactor.wake()
            if self.journal is not None:
                self.journal.sync()

    def sweep_done(self, seconds: float) -> None:
        self._m_queued.set(self.reactor.queued_bytes)
        self._m_loop.observe(seconds)

    def peer_message(self, peer: Peer, msg: dict, payload: Optional[bytes]) -> None:
        """Route one inbound frame, or a frame and the bulk it announced."""
        owner = peer.owner
        if payload is not None:
            if isinstance(owner, _ClientSession):
                with self._lock:
                    self.service.handle_message(owner, msg["type"], msg, payload)
            else:
                self._dispatch(owner, msg["type"], msg, payload)
            return
        self._m_frames_in.inc()
        if isinstance(owner, _ClientSession):
            self._client_frame(peer, owner, msg)
            return
        mtype = validate(msg)  # WireError unwinds the connection
        if owner is None:
            role = session_kind(mtype)
            if role is None:
                raise ProtocolError(
                    f"expected a session-opening frame, got {mtype!r}"
                )
            with self._lock:
                if self.control.closed:
                    raise ProtocolError("manager is closing")
                if role == SESSION_CLIENT:
                    self.service.hello(peer, msg)
                else:
                    peer.owner = self._register_worker(peer, msg)
        elif mtype == M.FILE_DATA and msg.get("found"):
            peer.expect_payload(msg, int(msg["size"]))
        else:
            self._dispatch(owner, mtype, msg, None)

    def peer_closed(self, peer: Peer, error: Optional[Exception]) -> None:
        """A connection ended — EOF, a read error, a write error or a
        liveness reap all arrive here, once."""
        owner = peer.owner
        with self._lock:
            if isinstance(owner, _WorkerHandle):
                if error is not None:
                    log.warning("dropping worker %s: %s", owner.worker_id, error)
                self._on_worker_gone(owner)
            elif isinstance(owner, _ClientSession):
                self.service.client_gone(owner)

    def _client_frame(self, peer: Peer, sess: _ClientSession, msg: dict) -> None:
        """Validate and route one frame from an attached client.

        Protocol violations on a client session answer with a
        ``client_reject`` frame instead of unwinding the connection —
        a misbehaving tenant must not lose its attachment over one bad
        request.  (Workers keep the strict unwind: their frames come
        from manager-trusted code.)
        """
        self._m_messages_in.inc()
        try:
            mtype = validate(msg)
            if mtype not in CLIENT_KINDS:
                raise WireError(f"{mtype!r} is not a client message")
        except WireError as exc:
            with self._lock:
                self.service.reject(sess, "protocol", str(exc), ref=msg.get("ref"))
            return
        spec = msg.get("spec") or {}
        if (
            mtype == M.DECLARE_FILE
            and spec.get("kind", "buffer") == "buffer"
            and int(spec.get("size", 0)) > 0
        ):
            peer.expect_payload(msg, int(spec["size"]))
            return
        if (
            mtype in (M.CREATE_LIBRARY, M.SUBMIT_TASK)
            and int(msg.get("payload_size", 0)) > 0
        ):
            # the serialized function table, or a call's inline argument
            # blob, follows as one bulk payload
            peer.expect_payload(msg, int(msg["payload_size"]))
            return
        with self._lock:
            self.service.handle_message(sess, mtype, msg, None)

    def _dispatch(
        self, handle: _WorkerHandle, mtype: str, msg: dict, payload: Optional[bytes]
    ) -> None:
        handle.last_seen = time.time()
        with self._lock:
            self._on_worker_message(handle, mtype, msg, payload)

    def _on_worker_message(
        self, handle: _WorkerHandle, mtype: str, msg: dict, payload: Optional[bytes]
    ) -> None:
        if mtype == M.BATCH:
            # coalesced payload-free notices (already schema-validated);
            # the sweep's single pump absorbs all their state changes
            subs = msg["messages"]
            self._m_batch_fill.observe(len(subs))
            for sub in subs:
                self._on_worker_message(handle, sub["type"], sub, None)
            return
        self._m_messages_in.inc()
        if mtype == M.CACHE_UPDATE:
            self.control.on_cache_update(
                handle.worker_id,
                msg["cache_name"],
                int(msg["size"]),
                msg.get("transfer_id"),
            )
        elif mtype == M.CACHE_INVALID:
            self.control.on_cache_invalid(
                handle.worker_id,
                msg["cache_name"],
                msg.get("transfer_id"),
                msg.get("reason", "transfer failed"),
                corrupt=bool(msg.get("corrupt")),
            )
        elif mtype == M.FAULT:
            # a chaos-run worker announcing self-sabotage, so the txn
            # log pairs the injected fault with the recovery it forces
            self.control.note_fault(
                handle.worker_id, msg["category"], msg.get("cache_name")
            )
        elif mtype == M.DRAINING:
            # a graceful departure: stop placing onto the worker, migrate
            # its sole-holder objects, answer with shutdown when done
            self.control.drain_worker(handle.worker_id)
        elif mtype == M.TASK_DONE:
            self._on_task_done(handle, msg)
        elif mtype == M.LIBRARY_READY:
            self.control.on_library_ready(handle.worker_id, msg["library"])
        elif mtype == M.FILE_DATA:
            # the answer to ask_holder; no payload = the worker denies
            # holding the object
            self.control.fetch_reply(handle.worker_id, msg["cache_name"], payload)

    # -- task completion --------------------------------------------------

    def _on_task_done(self, handle: _WorkerHandle, msg: dict) -> None:
        task_id = msg["task_id"]
        if task_id.startswith("lib:"):
            self.control.on_library_failed(handle.worker_id, task_id[len("lib:"):])
            return
        result = TaskResult(
            exit_code=int(msg["exit_code"]),
            output=msg.get("output", ""),
            failure=msg.get("failure"),
            exceeded=list(msg.get("exceeded", [])),
            measured=(
                Resources.from_dict(msg["measured"]) if "measured" in msg else None
            ),
            execution_time=float(msg.get("execution_time", 0.0)),
            staging_time=float(msg.get("staging_time", 0.0)),
        )
        self.control.attempt_ended(
            handle.worker_id, task_id, result, msg.get("harvested", ())
        )

    def decode_value(
        self, task: Task, payload: bytes, result: Optional[TaskResult] = None
    ) -> bool:
        """Decode a result envelope into a value-mode task; True iff it
        carried a value.

        With ``result`` (a live retrieval) an undecodable envelope or a
        remote exception is recorded on it; without (the RuntimePort
        form: the plane weighing a memo hit) the task is left untouched
        so the hit can be vetoed.
        """
        try:
            decoded = ser.loads(payload)
        except ser.SerializationError as exc:
            if result is not None:
                result.failure = f"result decode failed: {exc}"
            return False
        if decoded.get("ok"):
            task.set_output_value(decoded.get("value"))
            return True
        if result is None:
            return False
        if isinstance(task, PythonTask):
            # exit-1 semantics: the exception is the task's output
            task.set_output_value(None)
            result.failure = decoded.get("traceback") or "remote exception"
            err = decoded.get("error")
            if isinstance(err, BaseException):
                task.set_output_value(err)
            return False
        result.failure = decoded.get("traceback") or repr(decoded.get("error"))
        result.exit_code = result.exit_code or 1
        return False

    def _on_worker_gone(self, handle: _WorkerHandle) -> None:
        log.warning("worker %s disconnected", handle.worker_id)
        self.workers.pop(handle.worker_id, None)
        self.control.worker_left(handle.worker_id)

    # -- low-level send -------------------------------------------------------

    def push_object(self, record: Transfer, level: CacheLevel) -> None:
        """Push a manager-held object (buffer, local path, retained
        memo payload) to a worker.

        A file source is opened here, when the push is queued, and
        streamed by the reactor; one that cannot be read fails this
        transfer the way the worker's own ``cache_invalid`` would —
        after the planning pass that asked for it — and leaves the
        worker's channel alone.
        """
        handle = self.workers.get(record.dest_worker)
        if handle is None:
            return
        cache_name = record.cache_name
        f = self.registry.by_name(cache_name)
        header = {
            "type": M.PUT_FILE,
            "cache_name": cache_name,
            "level": int(level),
            "transfer_id": record.transfer_id,
        }
        if isinstance(f, BufferFile):
            header["size"] = len(f.data)
            self._send(handle.peer, header, f.data)
            return
        if isinstance(f, LocalFile):
            path = f.path
        elif self.memo_store is not None and self.memo_store.has_payload(cache_name):
            # memo-hit output with no live replica: the manager serves
            # the retained payload (validated at hit time) like a buffer
            path = self.memo_store.payload_path(cache_name)
        else:
            raise ManagerError(
                f"{type(f).__name__} {cache_name} cannot be manager-sourced"
            )
        try:
            if os.path.isdir(path):
                path = self._tar_of(f)
                header["format"] = "tar"
            fh = open(path, "rb")
            header["size"] = os.fstat(fh.fileno()).st_size
        except OSError as exc:
            self.reactor.call_later(
                0.0,
                functools.partial(
                    self._push_failed, record, f"cannot read {path}: {exc}"
                ),
            )
            return
        self._send(handle.peer, header, FileBody(fh, header["size"]))

    def _push_failed(self, record: Transfer, reason: str) -> None:
        with self._lock:
            if not self.control.closed:
                log.warning(
                    "push of %s to %s failed: %s",
                    record.cache_name, record.dest_worker, reason,
                )
                self.control.on_cache_invalid(
                    record.dest_worker, record.cache_name, record.transfer_id, reason
                )

    def _tell(self, worker_id: str, message: dict, payload=None) -> None:
        """Send a command to a worker, if it is still here."""
        handle = self.workers.get(worker_id)
        if handle is not None:
            self._send(handle.peer, message, payload)

    def _send(
        self, peer: Peer, message: dict, payload: "bytes | FileBody | None" = None
    ) -> None:
        """Queue a control message (plus the bytes or file it announces)
        behind whatever the peer is already owed.

        Callers hold the state lock, so per-peer wire order is issue
        order.  Nothing is written here: the reactor writes each FIFO
        after its sweep's ``before_write``, which is what orders the
        journal's fsync before the frames, and one ``send`` carries
        every command a sweep produced for that peer.
        """
        self._m_frames_out.inc()
        if payload:
            peer.send(encode_frame(message), payload)
        else:
            peer.send(encode_frame(message))
