"""The shared control plane: one policy engine for every runtime.

The paper's manager is a *policy* layer — the File Replica Table,
Current Transfer Table, locality placement, per-source transfer limits,
mini-task staging, library deployment, retry/regeneration, replication
and garbage collection (paper §2.2/§3.3).  Historically this repo had
two copies of that layer: the threaded/socket :class:`~repro.core.manager.Manager`
and the discrete-event :class:`~repro.sim.simmanager.SimManager`.  This
module extracts the policy into a single runtime-agnostic state machine,
:class:`ControlPlane`, expressed against a small :class:`RuntimePort`
protocol that each runtime implements with its own mechanisms (sockets
on one reactor loop, or simulated networks and virtual clocks).

Rules of the split:

* **Policy changes go here, and only here.**  If a change affects which
  worker runs a task, which source serves a transfer, when a file is
  replicated, regenerated or collected — it belongs in this file, and
  both runtimes pick it up automatically.
* Adapters own *mechanisms only*: wire formats, threads, virtual-time
  scheduling and payload (de)serialization.
* The control plane never does I/O and never reads a clock directly;
  time comes from :meth:`RuntimePort.now`, effects go out through the
  other port methods.  (One exception: it reads retained payloads out
  of the ``MemoStore`` it holds — storage, not a runtime mechanism.)
"""

from __future__ import annotations

import bisect
import collections
import functools
import heapq
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Protocol, Sequence

from repro.core.autoscale import Autoscaler
from repro.core.categories import CategoryTracker
from repro.core.events import EventLog
from repro.core.files import (
    CacheLevel,
    File,
    FileRegistry,
    LearnedFile,
    MiniTaskFile,
    TempFile,
)
from repro.core.gc import collect_task_inputs, collect_workflow
from repro.core.journal import build_task, file_spec, restore_file, task_spec
from repro.core.library import FunctionCall
from repro.core.naming import task_merkle
from repro.core.policy import Policy
from repro.core.replica_table import ReplicaTable
from repro.core.resources import ResourcePool, Resources
from repro.core.resultref import ResultRef
from repro.core.scheduler import (
    GATE_AVOID,
    GATE_BANNED,
    GATE_OK,
    PlacementIndex,
    ReadyQueue,
    Scheduler,
    WorkerView,
    placement_key,
)
from repro.core.task import PythonTask, Task, TaskResult, TaskState
from repro.core.transfer_table import (
    MANAGER_SOURCE,
    MINITASK_SOURCE,
    NO_SOURCE,
    Transfer,
    TransferTable,
    source_kind,
)
from repro.observe.metrics import MetricsRegistry

__all__ = [
    "NO_SOURCE",
    "MINITASK_SOURCE",
    "source_kind",
    "ManagerError",
    "RuntimePort",
    "WorkerState",
    "StagingJob",
    "LibraryState",
    "TenantAccount",
    "ControlPlane",
    "presubmit",
]

#: failed attempts tolerated per (object, source) before that source is
#: banned for the object
TRANSFER_RETRIES = 3
#: exponential-backoff base in seconds between a failed transfer and the
#: next attempt from the same source, and its ceiling (before jitter)
TRANSFER_BACKOFF_BASE = 0.5
TRANSFER_BACKOFF_MAX = 30.0
#: failure score at which a worker stops receiving new placements
BLOCKLIST_THRESHOLD = 5
#: seconds (on the runtime's clock) before an in-flight result fetch is
#: abandoned and its waiters are failed (orphaned-waiter hygiene)
FETCH_TTL = 300.0
#: ready tasks one placement pass may fail to place before it stops
PLACEMENT_WINDOW = 64
#: most cache names one ``delete_replica`` call carries (one ``unlink``
#: frame: a few hundred KiB, far below the wire's message ceiling)
UNLINK_BATCH = 4096


class ManagerError(RuntimeError):
    """Workflow-level failure raised to the application: a declaration
    or submission the manager refuses, a result it cannot produce."""


def _not_declared(task: Task, f: File) -> str:
    # ids are assigned after the checks, so name the command
    return f"input {f.label()} of task {task.command!r} was not declared"


def presubmit(task: Task, plane: "ControlPlane") -> str:
    """What a submitter decides alone, off the plane's thread: refuse a
    task once the plane is closed, one submitted before and one with an
    input never named; then stamp ``seq`` and the id from the plane's
    counter (``next`` on it is atomic).  Returns the id."""
    if plane.closed:
        raise ManagerError("manager is closed")
    if task.seq:
        raise ManagerError(f"task {task.task_id} already submitted")
    for _, f in task.inputs:
        if f.cache_name is None:
            raise ManagerError(_not_declared(task, f))
    task.seq = next(plane._task_seq)
    if task.task_id is None:
        task.task_id = f"t{task.seq}"
    return task.task_id


class RuntimePort(Protocol):
    """Mechanisms a runtime provides to the control plane.

    Every method is an *effect*: the control plane has already updated
    its tables and emitted events when a port method is called, so
    implementations only move bytes / schedule callbacks and then feed
    outcomes back through the ``ControlPlane.on_*`` entry points.
    """

    def now(self) -> float:
        """Current time on the runtime's clock (wall or virtual)."""
        ...

    def push_object(self, record: Transfer, level: CacheLevel) -> None:
        """Send a manager-held object to ``record.dest_worker``."""
        ...

    def send_fetch(self, record: Transfer, level: CacheLevel) -> None:
        """Tell ``record.dest_worker`` to pull from a URL or peer source."""
        ...

    def run_minitask(self, job: "StagingJob") -> None:
        """Materialize a mini-task product at ``job.worker_id``."""
        ...

    def start_task(self, task: Task) -> None:
        """Begin executing a dispatched task whose inputs are all present."""
        ...

    def cancel_task(self, task: Task) -> None:
        """Abort a task at its worker and discard any completion still
        pending from it; a no-op when the worker is already gone."""
        ...

    def launch_library(self, lib: "LibraryState", worker_id: str) -> None:
        """Start a library instance whose environment is fully staged."""
        ...

    def store_replica(
        self, worker_id: str, cache_name: str, size: int, level: CacheLevel
    ) -> None:
        """Persist a new replica into the worker's cache model (may evict)."""
        ...

    def delete_replica(self, worker_id: str, cache_names: list[str]) -> None:
        """Remove garbage-collected objects from one worker's cache (at
        most :data:`UNLINK_BATCH`; a single deletion is a list of one)."""
        ...

    def deliver(self, task: Task, ref: Optional[ResultRef]) -> None:
        """Hand a terminal task back to the application layer, once;
        ``ref`` describes the result of a call that finished by
        reference."""
        ...

    def ask_holder(self, worker_id: str, cache_name: str) -> None:
        """Ask a live holder to send an object's bytes back to the manager.

        The runtime answers through :meth:`ControlPlane.fetch_reply`
        with the payload, or ``None`` when the worker denies holding it.
        """
        ...

    def request_pump(self) -> None:
        """Ask the runtime to (re)run :meth:`ControlPlane.pump` soon."""
        ...

    def schedule_pump(self, delay: float) -> None:
        """Ask the runtime to pump after ``delay`` seconds (transfer back-offs,
        the fetch TTL, the recovery grace poll)."""
        ...

    def finish_drain(self, worker_id: str) -> None:
        """Release a draining worker: nothing references it any more."""
        ...

    def memo_persist(self, task: Task, merkle: str, outputs) -> None:
        """Retain each of ``outputs`` — the ones of a freshly recorded
        entry the plane found worth a payload — by fetching it
        best-effort and storing the bytes that arrive (a runtime
        without real bytes does nothing)."""
        ...

    def decode_value(
        self, task: Task, payload: bytes, result: Optional[TaskResult] = None
    ) -> bool:
        """Rebuild a value-carrying task's application-visible value
        from its result envelope; True iff it carried one.  With
        ``result`` (a live retrieval) an undecodable envelope or a
        remote exception is recorded on it; without (a memo hit being
        weighed) False leaves the task untouched.  A runtime whose
        tasks carry no values returns True."""
        ...


@dataclass
class WorkerState:
    """The control plane's bookkeeping for one connected worker."""

    worker_id: str
    pool: ResourcePool
    #: ids of tasks dispatched to or running at this worker
    running: set = field(default_factory=set)


@dataclass
class TenantAccount:
    """Per-tenant accounting and quota state (service mode).

    Every task carries a ``tenant`` label ("default" when the manager is
    driven single-tenant); the control plane keeps one account per label
    so the fair-share queue, the quota checks, and the ``tenant.*``
    metrics all read from the same ledger.  ``None`` quotas mean
    unlimited (the single-tenant/loopback default).
    """

    name: str
    #: max simultaneously outstanding (non-terminal) tasks; None = no cap
    task_quota: Optional[int] = None
    #: max cumulative declared input bytes; None = no cap
    byte_quota: Optional[int] = None
    submitted: int = 0
    done: int = 0
    failed: int = 0
    outstanding: int = 0
    running: int = 0
    bytes_declared: int = 0
    cache_hits: int = 0
    #: completions un-counted for regeneration (``done`` dipped by one
    #: per entry until the producer re-delivers)
    regens: int = 0
    #: the highest each gauged count ever was, recorded where it rises
    #: (the methods below are the only writers of those counts)
    peak_queued: int = 0
    peak_running: int = 0
    peak_headroom: int = -1

    def task_headroom(self) -> Optional[int]:
        """Remaining submit slots, or None when unlimited."""
        if self.task_quota is None:
            return None
        return max(0, self.task_quota - self.outstanding)

    @property
    def queued(self) -> int:
        """Outstanding tasks not running (queued, staging or finishing)."""
        return max(0, self.outstanding - self.running)

    @property
    def headroom(self) -> int:
        """:meth:`task_headroom` as its gauge shows it: -1 = unlimited."""
        headroom = self.task_headroom()
        return -1 if headroom is None else headroom

    def admitted(self) -> None:
        """A task became outstanding (submitted, resumed, regenerated)."""
        self.outstanding += 1
        self.peak_queued = max(self.peak_queued, self.queued)

    def ended(self) -> None:
        """An outstanding task reached a terminal state."""
        self.outstanding -= 1
        if self.task_quota is not None:
            # a slot under the quota freed (unlimited, the gauge reads
            # -1 whatever is outstanding)
            self.note_headroom()

    def started(self) -> None:
        self.running += 1
        self.peak_running = max(self.peak_running, self.running)

    def stopped(self) -> None:
        self.running -= 1
        self.peak_queued = max(self.peak_queued, self.queued)

    def note_headroom(self) -> None:
        """The task quota was set, or a slot under it freed."""
        self.peak_headroom = max(self.peak_headroom, self.headroom)


@dataclass(eq=False)
class _Stage:
    """One consumer's inputs on their way to one worker: a dispatched
    task, a library deployment or a mini-task job, until it starts.

    A stage is re-planned when something its last plan waited for
    changed, never on a schedule of its own: ``ControlPlane`` indexes it
    by the inputs it consumes and by the names it found no free source
    for, and the events that touch those mark it dirty for the next
    pump (see ``ControlPlane._advance``).
    """

    #: re-plan order inside a pump — tasks in dispatch order, then
    #: deployments library by library, then jobs in creation order
    order: tuple
    #: whose ``input_cache_names()`` must all be present at the worker
    consumer: Task
    worker_id: str
    #: called once, when every input is present
    start: Callable[[], None]
    #: inputs the last plan deferred (no source with a free slot), and
    #: the manager/URL sources among those that serve them
    deferred: Sequence[str] = ()
    behind: Sequence[str] = ()
    #: False once started or abandoned; stale references are skipped
    live: bool = True


#: ``_Stage.order`` ranks: the order the every-pump scans ran in
_TASK_STAGE, _LIBRARY_STAGE, _JOB_STAGE = 0, 1, 2


@dataclass(eq=False)
class StagingJob:
    """A pending mini-task materialization at one worker."""

    file: MiniTaskFile
    worker_id: str
    transfer_id: str
    started: bool = False
    #: the wait for the mini task's own inputs; done once ``started``
    stage: Optional[_Stage] = field(default=None, repr=False)


@dataclass
class _Fetch:
    """One cache name's in-flight byte resolution (result fetch plane).

    Every requester of the name shares it, so concurrent fetches cost
    one ``ask_holder``, not one each.
    """

    #: ``port.now()`` at creation (the TTL backstop measures from here)
    started: float
    #: callables ``(worker_id | None, payload | None)``, all served by
    #: the one reply
    waiters: list = field(default_factory=list)
    #: some waiter justifies re-running the producer (is not best-effort)
    needy: bool = False
    #: the source being asked; None while parked on lineage regeneration
    asked: Optional[str] = None
    #: txn-log category of the open ask: ``@fetch`` or ``@retrieve``
    category: str = "@fetch"
    #: holders already asked
    tried: set = field(default_factory=set)


@dataclass(eq=False)
class _Retrieval:
    """One ended attempt whose completion waits for outputs to come
    home: the value the application reads from the task, and every
    output declared ``bring_back``."""

    task: Task
    #: cache names still on their way; the last arrival finishes the task
    awaited: set


class LibraryState:
    """Deployment state of one library across workers.

    Runtimes subclass this to carry their own launch mechanisms (a
    serialized function payload, a simulated startup time).  Phases per
    worker: ``staging`` (environment files in flight) → ``starting``
    (instance launching) → ``ready`` | ``failed``.

    ``resources`` is what one instance takes from a worker's pool for as
    long as it is installed, and the whole charge for everything it
    runs; ``slots`` is how many calls share that allocation at once
    (paper §3.4, Fig. 8).
    """

    def __init__(
        self,
        name: str,
        env_files: Sequence[File] = (),
        resources: Optional[Resources] = None,
        slots: int = 1,
    ) -> None:
        self.name = name
        self.env_files = list(env_files)
        self.resources = resources if resources is not None else Resources(cores=1)
        self.slots = slots
        self.installed = False
        #: worker_id -> "staging" | "starting" | "ready" | "failed"
        self.state: dict[str, str] = {}
        #: deployments whose environment files are still being staged,
        #: by worker (the control plane's ``_Stage`` over a pseudo-task)
        self.stages: dict[str, _Stage] = {}


class ControlPlane:
    """Runtime-agnostic manager state machine (paper Fig. 1 policy box).

    Owns the ready queue, the replica/transfer tables, the placement
    pump, staging and library state machines, retry/regeneration policy
    and garbage collection.  All effects flow through ``port``; all
    outcomes come back through the ``on_*`` methods.  The control plane
    is not thread-safe — the threaded runtime serializes calls under its
    own lock, the simulator is single-threaded by construction.
    """

    def __init__(
        self,
        port: RuntimePort,
        policy: Policy = Policy(),
        seed: int = 0,
        memo=None,
        journal=None,
    ) -> None:
        self.port = port
        #: the configuration this plane runs with (immutable; what the
        #: runtimes log at start and journal in the meta record)
        self.policy = policy
        self.registry = FileRegistry()
        self.replicas = ReplicaTable()
        self.transfers = TransferTable(
            worker_limit=policy.worker_transfer_limit,
            source_limit=policy.source_transfer_limit,
        )
        self.scheduler = Scheduler(
            self.replicas, self.transfers, locality=policy.locality
        )
        self.log = EventLog()
        self.categories = CategoryTracker()
        # the knobs read on the submit / transfer-planning / completion
        # hot paths, bound once; everything else reads ``self.policy``
        self.resource_learning = policy.resource_learning
        self.temp_replica_count = max(1, policy.temp_replica_count)
        #: deterministic jitter stream (scoped so chaos runs replay bit-
        #: identically for a given seed)
        self._rng = random.Random(f"{seed}:backoff")

        self.tenants: dict[str, TenantAccount] = {}
        self._tenant_counters: dict[str, dict] = {}

        #: persistent memoization store (``repro.memo.MemoStore``) or
        #: None; policy — consult / serve / invalidate — lives here, the
        #: store is mechanism only
        self.memo = memo
        #: task_id → merkle for in-flight eligible tasks (recorded on DONE)
        self._memo_pending: dict[str, str] = {}
        #: memo-hit tasks awaiting completion at the next pump — deferred
        #: so ``port.deliver`` never fires inside ``submit`` (the service
        #: layer registers its bookkeeping only after submit returns)
        self._memo_complete: list[Task] = []

        #: durable write-ahead journal (``repro.core.journal
        #: .ControlPlaneJournal``) or None; every state transition that
        #: must survive a manager crash is appended (a replica's, from its event)
        self.journal = journal
        #: recovery grace window: after a restart the pump holds new
        #: placements until the previously-known workers rejoined (or a
        #: deadline passed), so surviving replicas re-adopt before the
        #: lineage machinery concludes anything was lost
        self._recovering = False
        self._recovery_deadline = 0.0
        self._recovery_expected = 0
        self._recovery_joined = 0
        #: output names recorded DONE before the crash, awaiting a live
        #: backing (re-announced replica / refetchable source) — the
        #: OxyMake soundness rule applied at the end of the grace window
        self._recovery_await: dict[str, int] = {}
        self._recovery_backed: set[str] = set()

        self.tasks: dict[str, Task] = {}
        self._ready = ReadyQueue()
        #: one placement index per library key (None: the pool-wide
        #: one), built on first use and kept current through
        #: ``_view_changed``: the workers whose views may have changed
        #: since the indexes were last read (``_index``)
        self._indexes: dict[Optional[str], PlacementIndex] = {}
        self._changed: set[str] = set()
        #: parked READY tasks (off the ready heap, see ``_pump_body``):
        #: task id -> the missing inputs it still waits for, and the
        #: reverse index cache name -> ids of the tasks waiting for it
        self._awaiting: dict[str, set[str]] = {}
        self._parked_on: dict[str, set[str]] = {}
        #: per-manager task id/sequence counter: two managers in one
        #: process issue identical ``t1, t2, …`` streams (chaos replay)
        self._task_seq = itertools.count(1)
        self._dispatched: dict[str, Task] = {}
        #: waiting stages, indexed by what can change their plan (see
        #: :meth:`_advance`): every stage by the inputs it consumes and
        #: the worker it stages them to; the ones whose last plan
        #: deferred an input queue up, oldest first as ``(order,
        #: stage)``, under that input's name and behind the manager/URL
        #: source that serves it; ``_stage_dirty`` is what the next
        #: pump re-plans outright, ``_slot_offers`` the ``(source, name
        #: | None)`` slots that opened since the last one — a holder's
        #: for a name, or a manager/URL source's for its whole queue —
        #: which it hands down the queue for as long as they last.  Only
        #: a stage deferred behind a retry back-off — a gate that opens
        #: with time, not with an event — is re-planned on every pump
        #: until it is not.
        self._stage_seq = itertools.count()
        self._task_stages: dict[str, _Stage] = {}
        self._consumers: dict[str, dict[str, set[_Stage]]] = {}
        self._deferred_on: dict[str, list[tuple[tuple, _Stage]]] = {}
        self._slot_queue: dict[str, list[tuple[tuple, _Stage]]] = {}
        self._stage_dirty: set[_Stage] = set()
        self._slot_offers: set[tuple[str, Optional[str]]] = set()
        self._deferred_staging: set[_Stage] = set()
        self._running: dict[str, Task] = {}
        #: ended attempts whose completion awaits outputs coming home
        self._finishing: dict[str, _Retrieval] = {}
        #: in-flight result fetches by cache name (insertion = age order)
        self._fetches: dict[str, _Fetch] = {}
        self.workers: dict[str, WorkerState] = {}

        #: the source that serves each name, read like a mapping: one
        #: field of the name's record in the registry, which also holds
        #: its size (:meth:`size_of`)
        self.sources = self.registry.sources
        self.libraries: dict[str, LibraryState] = {}
        self._lib_load: collections.Counter = collections.Counter()
        #: workers an installed library did not fit on, and those among
        #: them whose pool gave something back since the last pump
        self._undeployed: set[str] = set()
        self._deploy_retry: set[str] = set()
        #: mini-task jobs by worker and transfer id, oldest first
        self._staging: dict[str, dict[str, StagingJob]] = {}
        self._pinned: dict[str, collections.Counter] = collections.defaultdict(
            collections.Counter
        )
        self._input_refs: collections.Counter = collections.Counter()
        #: one string per distinct sandbox name among the plane's tasks,
        #: so 20 000 tasks naming an output ``out0`` share one.  A table
        #: of the plane's own, not ``sys.intern``: names a remote client
        #: chose live as long as the plane that holds their tasks, never
        #: as long as the process
        self._sandbox_names: dict[str, str] = {}
        #: failed-attempt counts keyed by (cache_name, source) — one
        #: budget *per source*, so a flaky peer cannot starve a healthy
        #: one; reset when a transfer from that source succeeds
        self._transfer_attempts: collections.Counter = collections.Counter()
        #: earliest next-attempt time per (cache_name, source) (backoff)
        self._retry_at: dict[tuple[str, str], float] = {}
        #: latest such time per cache name: while it is ahead, a stage
        #: deferred on the name may be waiting for the clock alone
        self._retry_until: dict[str, float] = {}
        #: per-worker failure score: grows on failures/corruption it
        #: served, shrinks on successes; at ``BLOCKLIST_THRESHOLD`` the
        #: worker stops receiving placements and is avoided as a source
        self.failure_scores: collections.Counter = collections.Counter()
        self.blocklist: set[str] = set()
        #: workers gracefully departing (elastic scale-down): they keep
        #: serving running tasks and peer transfers but receive no new
        #: placements; sole-holder objects migrate to survivors first
        self.draining: set[str] = set()
        #: draining workers whose release was already ordered through
        #: the port's ``finish_drain`` (awaiting the actual leave)
        self._drain_released: set[str] = set()
        #: per-draining-worker migration accounting for the
        #: ``worker_drained`` event: objects/bytes re-replicated so far
        self._drain_stats: dict[str, dict] = {}
        #: ids of regenerated producers: redelivery to wait() is suppressed
        self._regenerated: set[str] = set()
        #: earliest already-scheduled delayed pump (coalesces timers)
        self._next_wake: float = 0.0

        self.outstanding = 0
        self.done_count = 0
        self.transfer_counts: collections.Counter = collections.Counter()
        self.bytes_by_source: collections.Counter = collections.Counter()
        self.closed = False

        # observability: instrument handles are resolved once here so the
        # hot paths below touch no registry locks, only the instruments'.
        # The gauges are the tables' own counts and peaks, read when a
        # snapshot is taken: nothing below writes one.  Likewise an
        # event is counted once, by the log: ``events.<kind>`` is its
        # tally, so no counter below shadows an event kind.
        self.metrics = MetricsRegistry()
        self.metrics.pulled_counters("events.", self.log.counts)
        ready, transfers = self._ready, self.transfers
        self.metrics.pulled("queue.ready_depth", lambda: (len(ready), ready.peak_depth))
        self.metrics.pulled("queue.parked", lambda: (ready.parked, ready.peak_parked))
        self.metrics.pulled(
            "transfers.in_flight", lambda: (transfers.moving(), transfers.peak_moving)
        )
        self.metrics.pulled("staging.in_flight", lambda: transfers.kind_level("stage"))
        for kind in ("manager", "url", "peer"):
            self.metrics.pulled(
                f"transfers.per_source.{kind}", functools.partial(transfers.kind_level, kind)
            )
        self._m_pump = self.metrics.histogram("pump.latency_seconds")
        self._m_cache_hits = self.metrics.counter("cache.hits")
        self._m_cache_misses = self.metrics.counter("cache.misses")
        self._m_evictions = self.metrics.counter("cache.evictions")
        self._m_eviction_bytes = self.metrics.counter("cache.eviction_bytes")
        self._m_sandbox = self.metrics.histogram("task.sandbox_setup_seconds")
        self._m_exec = self.metrics.histogram("task.execution_seconds")
        self._m_invoke = self.metrics.histogram("library.invoke_seconds")
        self._m_transfers_corrupt = self.metrics.counter("transfers.corrupt")
        self._m_memo_bytes = self.metrics.counter("memo.bytes_saved")
        # result fetch plane (pass-by-reference results, ROADMAP item 3)
        self._m_fetch_serves = self.metrics.counter("fetch.serves")
        self._m_fetch_bytes = self.metrics.counter("fetch.bytes")
        self._m_proxies = self.metrics.counter("proxy.published")
        # elastic clusters (ROADMAP item 5a): graceful drains and the
        # autoscaler's fleet decisions
        self._m_drain_objects = self.metrics.counter("elastic.drain_objects_replicated")
        self._m_drain_bytes = self.metrics.counter("elastic.drain_bytes_replicated")
        self._m_drain_stranded = self.metrics.counter("elastic.drain_objects_stranded")
        self._m_scale_up = self.metrics.counter("elastic.scale_up")
        self._m_scale_down = self.metrics.counter("elastic.scale_down")
        self._m_resumed = self.metrics.counter("recovery.tasks_resumed")
        self._m_restored_done = self.metrics.counter("recovery.tasks_restored_done")
        self._m_replayed = self.metrics.counter("recovery.journal_records_replayed")
        # records ÷ fsyncs is the group-commit factor (1.0 = none)
        self._m_journal_records = self.metrics.counter("journal.records")
        self._m_journal_fsyncs = self.metrics.counter("journal.fsyncs")
        self._m_records_per_sync = self.metrics.histogram("journal.records_per_sync")
        if journal is not None:
            journal.on_compact = self._on_journal_compact
            journal.journal.on_sync = self._on_journal_sync
            self.log.attach(journal)
        self._pump_depth = 0
        #: scheduler hot-path instruments: per-pump policy time in µs
        #: and how many (task, worker) pairs placement actually scored
        self._m_pump_us = self.metrics.histogram("sched.pump_us")
        self._m_candidates = self.metrics.counter("sched.candidates_scored")

        # the scheduler consults the control plane's failure knowledge
        # when ranking placements and picking transfer sources
        self.scheduler.transfer_gate = self._transfer_gate
        self.scheduler.failure_score = lambda wid: self.failure_scores.get(wid, 0)
        self.scheduler.candidates_counter = self._m_candidates

    def _on_journal_sync(self, records: int) -> None:
        """One journal fsync made ``records`` appended records durable."""
        self._m_journal_fsyncs.inc()
        self._m_journal_records.inc(records)
        self._m_records_per_sync.observe(records)

    def _on_journal_compact(self, lifetime: int) -> None:
        """The journal rolled a compacting snapshot."""
        self.log.emit(
            self.port.now(), "journal_snapshot", size=lifetime,
        )

    # ------------------------------------------------------------------
    # declarations
    # ------------------------------------------------------------------

    def declare(
        self, f: File, size: Optional[int] = None, source: Optional[str] = None
    ) -> File:
        """Register a named file, its size and the source that serves it.

        The source follows from the file's kind (``File.source``); only
        a plain :class:`File` — the simulator's stand-in for content —
        has to name one.  A redeclaration updates the canonical record.
        """
        if source is None:
            source = f.source
            if source is None:
                raise ManagerError(
                    f"file {f.label()} names no source to serve it"
                )
        served = self.sources.get(f.cache_name, NO_SOURCE)
        canonical = self.registry.register(f)
        name = canonical.cache_name
        if canonical.source != source:  # a kind names its own
            canonical.source = source
        if source == NO_SOURCE and served != NO_SOURCE:
            self._source_withdrawn(name)
        if size is not None:
            canonical.size = size
        elif canonical is not f:
            canonical.size = f.size
        if self.journal is not None:
            self.journal.record_declare(file_spec(f, source, canonical.size or 0))
        return canonical

    def size_of(self, cache_name: str) -> int:
        """The size of a name: its record's, else (a name no record
        holds, reported by a worker) the replica table's, else 0."""
        f = self.registry.get(cache_name)
        if f is None:
            return self.replicas.size_of(cache_name)
        return f.size or 0

    def _learned(self, cache_name: str, size: int) -> File:
        """The record of a name the plane learns of without a
        declaration (a replica a joining worker announces, an output a
        journal recorded): the registry's own, or a new
        :class:`LearnedFile` of ``size`` bytes."""
        f = self.registry.get(cache_name)
        if f is None:
            f = self.registry.register(LearnedFile(cache_name, size))
        return f

    def _source_withdrawn(self, cache_name: str) -> None:
        """``cache_name`` was redeclared with no fixed source where one
        served it: if no replica backs it, whoever reads it now waits
        for a producer."""
        if not self.replicas.replica_count(cache_name):
            self._unvet_needing({cache_name})

    def declare_output_file(self, f: File) -> None:
        """Register a task output that exists only once produced."""
        served = self.sources.get(f.cache_name, NO_SOURCE)
        canonical = self.registry.register(f)
        if canonical.source != NO_SOURCE:
            canonical.source = NO_SOURCE
        if served != NO_SOURCE:
            self._source_withdrawn(canonical.cache_name)
        if self.journal is not None:
            self.journal.record_declare(file_spec(f, NO_SOURCE, canonical.size or 0))

    def adopt_replica(self, worker_id: str, cache_name: str, size: int) -> None:
        """Adopt a pre-existing cache entry announced by a joining worker."""
        f = self._learned(cache_name, size)
        cache_name = f.cache_name
        self._add_replica(
            worker_id, cache_name, size, f, self.port.now(), False, "adopted"
        )
        if (
            self._recovering
            and cache_name in self._recovery_await
            and cache_name not in self._recovery_backed
        ):
            self._recovery_backed.add(cache_name)
            self.log.emit(
                self.port.now(), "replica_readopted",
                worker=worker_id, file=cache_name, size=size,
            )

    # ------------------------------------------------------------------
    # tenants: namespaces, quotas and per-tenant accounting
    # ------------------------------------------------------------------

    def tenant_account(self, name: str) -> TenantAccount:
        """The (lazily created) account for one tenant label."""
        acct = self.tenants.get(name)
        if acct is None:
            acct = self.tenants[name] = TenantAccount(
                name=name,
                task_quota=self.policy.default_task_quota,
                byte_quota=self.policy.default_byte_quota,
            )
            acct.note_headroom()
            m = self.metrics
            self._tenant_counters[name] = {
                "done": m.counter(f"tenant.{name}.tasks_done"),
                "failed": m.counter(f"tenant.{name}.tasks_failed"),
            }
            prefix = f"tenant.{name}."
            m.pulled_counters(
                prefix,
                lambda: {"cache_hits": acct.cache_hits, "regenerations": acct.regens},
            )
            m.pulled(prefix + "tasks_queued", lambda: (acct.queued, acct.peak_queued))
            m.pulled(prefix + "tasks_running", lambda: (acct.running, acct.peak_running))
            # declared bytes only ever grow: the value is the peak
            m.pulled(prefix + "bytes_declared", lambda: (acct.bytes_declared,) * 2)
            m.pulled(
                prefix + "quota_headroom", lambda: (acct.headroom, acct.peak_headroom)
            )
        return acct

    def set_tenant_quota(
        self,
        tenant: str,
        task_quota: Optional[int] = None,
        byte_quota: Optional[int] = None,
    ) -> TenantAccount:
        """Override one tenant's quotas (None = unlimited dimension)."""
        acct = self.tenant_account(tenant)
        acct.task_quota = task_quota
        acct.byte_quota = byte_quota
        acct.note_headroom()
        if self.journal is not None:
            self.journal.record_quota(tenant, task_quota, byte_quota)
        return acct

    def tenant_charge_bytes(self, tenant: str, nbytes: int) -> Optional[str]:
        """Charge declared bytes against the tenant's byte quota.

        Returns a refusal reason (and charges nothing) when the quota
        would be exceeded; None on success.
        """
        acct = self.tenant_account(tenant)
        if (
            acct.byte_quota is not None
            and acct.bytes_declared + nbytes > acct.byte_quota
        ):
            return (
                f"byte quota exceeded: {acct.bytes_declared + nbytes} "
                f"declared of {acct.byte_quota} allowed"
            )
        acct.bytes_declared += nbytes
        if self.journal is not None:
            self.journal.record_tenant_bytes(tenant, nbytes)
        return None

    def in_namespace(self, tenant: str, cache_name: str) -> bool:
        """Whether ``cache_name`` is in ``tenant``'s namespace, read off
        the name's record: the tenant declared or adopted it through a
        session (the record's ``owner``), or one of its tasks produces
        it (the record's producer)."""
        f = self.registry.get(cache_name)
        if f is None:
            return False
        if f.owned_by(tenant):
            return True
        producer = self.tasks.get(f.producer_task_id)
        return producer is not None and producer.tenant == tenant

    def tenant_add_names(self, tenant: str, cache_names: Iterable[str]) -> None:
        """Admit declared cache names into the tenant's namespace.

        A name the tenant's own tasks do not already produce takes the
        tenant's account string among its record's owners.  The journal
        gets a ``tenant_name`` record for every name (it writes each
        once): a restart restores a memo output shared by two tenants'
        tasks under one of them as producer, and the other tenant's
        record is what keeps the name in its namespace.
        """
        acct = self.tenant_account(tenant)
        j = self.journal
        for name in cache_names:
            if j is not None:
                j.record_tenant_name(tenant, name)
            f = self.registry.get(name)
            if f is not None and not self.in_namespace(tenant, name):
                f.add_owner(acct.name)

    def tenant_cache_hit(self, tenant: str, cache_name: str, size: int) -> None:
        """A tenant declared content already known to the service."""
        acct = self.tenant_account(tenant)
        acct.cache_hits += 1
        self.log.emit(
            self.port.now(), "cache_shared",
            file=cache_name, size=size, category=tenant,
        )

    # ------------------------------------------------------------------
    # memoization: serve recorded results for deterministic resubmissions
    # ------------------------------------------------------------------

    def _memo_eligible(self, task: Task) -> bool:
        """The one eligibility rule: a store is attached, the application
        asserted determinism, the task produces outputs, and its tenant
        did not opt out."""
        return (
            self.memo is not None
            and task.deterministic
            and bool(task.outputs)
            and task.tenant not in self.policy.memo_opt_out
        )

    def _name_outputs(self, task: Task, namer, eligible: bool) -> None:
        """Name and declare an admitted ``task``'s outputs (its inputs
        are already named), with the runtime's ``namer``.

        The same recipe must map to the same cache names across runs
        and tenants for memoization to mean anything, so a memo-eligible
        task's outputs get deterministic ``memo-md5-`` names derived
        from the task merkle instead of run-salted temp names — and
        worker-lifetime cache levels, so their replicas survive workflow
        GC and worker restarts.  Every other unnamed output takes the
        namer's run-salted name.
        """
        merkle = task_merkle(task) if eligible else None
        for _, f in task.outputs:
            if merkle is not None and self._memo_renameable(f):
                f.cache_level = CacheLevel.WORKER
                namer.name_task_output(f, task, merkle)
            elif f.cache_name is None:
                namer.assign(f)
            else:
                continue
            self.declare_output_file(f)

    def _memo_renameable(self, f: File) -> bool:
        """True when an output may take a memo-derived cache name.

        Unnamed outputs always may.  A declared ``TempFile`` still
        carrying its placeholder random name may be renamed only while
        nothing references that name — no submitted consumer counted it
        as an input and no replica exists under it — since renaming
        later would strand those references on a name never produced.
        """
        name = f.cache_name
        if name is None:
            return True
        if not isinstance(f, TempFile):
            return False
        parts = name.split("-", 2)
        if len(parts) < 2 or not parts[1].startswith("rnd"):
            return False
        return (
            self.replicas.replica_count(name) == 0
            and self._input_refs.get(name, 0) == 0
        )

    def _memo_try_hit(self, task: Task) -> bool:
        """Serve a memo-eligible ``task`` from the memo store if soundly
        possible.

        Returns True when the task's recorded outputs were adopted and
        the task is queued for immediate completion (it must then *not*
        enter the ready queue).  Soundness (OxyMake's rule): every
        recorded output must be backed by a live replica or a
        digest-verified retained payload; otherwise the entry is
        invalidated and the task runs — a corrupt memo entry is never
        served.
        """
        try:
            task.merkle = task_merkle(task)
        except RuntimeError:
            return False  # unnamed inputs: not memoizable as submitted
        now = self.port.now()
        entry = self.memo.get(task.merkle)
        if entry is not None:
            # the recorded binding must describe exactly the outputs this
            # submission expects — a rename means a different recipe even
            # if the merkle collided (pre-named outputs are part of it)
            expected = {o.sandbox: o.cache_name for o in entry.outputs}
            current = {rn: f.cache_name for rn, f in task.outputs}
            if expected != current:
                entry = None
        if entry is not None:
            bad = self._memo_validate(entry)
            if bad is not None:
                self.memo.remove(entry.merkle)
                self.log.emit(
                    now, "memo_invalidated",
                    task=task.task_id, file=bad, category=task.tenant,
                )
                entry = None
        if entry is not None and not self._memo_value_ok(task, entry):
            entry = None  # vetoed: the task runs, the entry stays
        if entry is None:
            self.log.emit(
                now, "memo_miss",
                task=task.task_id, file=task.merkle, category=task.tenant,
            )
            self._memo_pending[task.task_id] = task.merkle
            return False
        saved = 0
        for out in entry.outputs:
            name = out.cache_name
            self._learned(name, out.size).size = out.size
            if self.replicas.replica_count(name) == 0:
                # payload-backed: the manager serves the bytes itself
                self.set_fixed_source(name, MANAGER_SOURCE)
            saved += out.size
        self.memo.touch(entry.merkle, now)
        self._m_memo_bytes.inc(saved)
        self.log.emit(
            now, "memo_hit",
            task=task.task_id, file=task.merkle, size=saved, category=task.tenant,
        )
        self._memo_complete.append(task)
        return True

    def _memo_validate(self, entry) -> Optional[str]:
        """First unsound output cache name of ``entry``, or None if sound."""
        for out in entry.outputs:
            if self.replicas.replica_count(out.cache_name) > 0:
                continue
            if self._memo_attach(out.cache_name, out.md5):
                continue
            return out.cache_name
        return None

    def _memo_value_ok(self, task: Task, entry) -> bool:
        """Can a sound hit hand the application what it waits for?

        Command tasks carry everything in their output files, and a
        by-reference call's proxy resolves lazily through the fetch
        plane, which the validated entry is known to serve.  A task
        whose *value* the application reads (:meth:`Task.value_output`)
        needs more: a digest-verified retained payload that the runtime
        decodes into it — without one (or with a recorded exception)
        the hit is vetoed and the task runs.
        """
        f = task.value_output()
        if f is None:
            return True
        out = next((o for o in entry.outputs if o.cache_name == f.cache_name), None)
        if out is None or not self._memo_attach(out.cache_name, out.md5):
            return False
        data = self._memo_payload_bytes(out.cache_name)
        return data is not None and self.port.decode_value(task, data)

    def _memo_attach(self, cache_name: str, md5: Optional[str]) -> bool:
        """True iff a retained payload can soundly back ``cache_name``.

        Consulted for a memo entry whose replicas are gone.  A payload
        that fails its digest is dropped on the spot — a corrupt
        retained copy must never be served.
        """
        if self.memo is None or md5 is None:
            return False
        if self.memo.verify_payload(cache_name, md5):
            return True
        self.memo.drop_payload(cache_name)
        return False

    def _memo_payload_bytes(self, cache_name: str) -> Optional[bytes]:
        """A retained payload's bytes, or None if absent/unreadable."""
        if self.memo is None or not self.memo.has_payload(cache_name):
            return None
        try:
            with open(self.memo.payload_path(cache_name), "rb") as fh:
                return fh.read()
        except OSError:
            return None

    def _memo_record(self, task: Task, merkle: str) -> None:
        """Bind a finished task's outputs to its merkle in the store."""
        from repro.memo.store import MemoOutput

        outputs = []
        for remote_name, f in task.outputs:
            if f.cache_name is None:
                return  # an unnamed output cannot be recovered later
            outputs.append(
                MemoOutput(
                    sandbox=remote_name,
                    cache_name=f.cache_name,
                    size=self.size_of(f.cache_name),
                )
            )
        if isinstance(task, PythonTask):
            kind, command = "python", "@pytask"
        elif isinstance(task, FunctionCall):
            kind, command = "call", f"{task.library_name}.{task.function_name}"
        else:
            kind, command = "command", task.command
        self.memo.record(
            merkle, kind, command, task.tenant, outputs, now=self.port.now()
        )
        # small outputs are worth retaining as payloads, so hits survive
        # every worker cache being gone (daemon restarts, new clusters);
        # one nobody live holds could only be had by re-running the task
        self.port.memo_persist(
            task,
            merkle,
            [
                out
                for out in outputs
                if out.size <= self.memo.payload_limit
                and any(w in self.workers for w in self.replicas.locate(out.cache_name))
            ],
        )

    def _drain_memo_complete(self) -> None:
        """Complete memo-hit tasks parked since the last pump."""
        while self._memo_complete:
            pending, self._memo_complete = self._memo_complete, []
            for task in pending:
                if not task.is_done:
                    # a hit is not an attempt: its outputs were adopted
                    # where they are, and nothing waits to come home
                    self._gc_task_inputs(task)
                    self._settle_outputs(task, None)
                    self._finish_task(task, TaskResult(exit_code=0, output="memo"))
                    self.port.request_pump()

    # ------------------------------------------------------------------
    # task lifecycle: submission, cancellation, completion
    # ------------------------------------------------------------------

    def _declared(self, f: File) -> bool:
        return f.cache_name is not None and f.cache_name in self.registry

    def submit(self, task: Task, namer=None) -> str:
        """Admit a task into the ready queue, or refuse it.

        Refused, with :class:`ManagerError` and nothing recorded: any
        task once the workflow ended (:meth:`end_workflow`), a task
        submitted before, one naming an input nobody declared, and one
        whose tenant already has its quota of tasks outstanding.
        An admitted task's outputs are named and declared with the
        runtime's ``namer`` (:meth:`_name_outputs`; without one they
        must be already).

        Submission stamps the task's identity unless :func:`presubmit`
        did: a monotonic per-manager ``seq`` (the FIFO key the scheduler
        orders by) and, unless supplied, the id ``t<seq>``.  A deterministic
        task whose merkle matches a sound memo entry never reaches the
        ready queue: its outputs are adopted and it completes at the
        next pump without dispatching.
        """
        if self.closed:
            raise ManagerError("manager is closed")
        if task.state != TaskState.CREATED:
            raise ManagerError(f"task {task.task_id} already submitted")
        share = self._sandbox_names.setdefault
        inputs = task.inputs
        for i, (name, f) in enumerate(inputs):
            if not self._declared(f):
                raise ManagerError(_not_declared(task, f))
            inputs[i] = (share(name, name), f)
        acct = self.tenant_account(task.tenant)
        headroom = acct.task_headroom()
        if headroom is not None and headroom <= 0:
            raise ManagerError(
                f"task quota exceeded: {acct.outstanding} outstanding "
                f"of {acct.task_quota} allowed"
            )
        eligible = self._memo_eligible(task)
        if namer is not None:
            self._name_outputs(task, namer, eligible)
        task.seq = task.seq or next(self._task_seq)
        if task.task_id is None:
            task.task_id = f"t{task.seq}"
        names = task.input_names = task.input_cache_names()
        for name in names:
            self._input_refs[name] += 1
        outputs = task.outputs
        for i, (name, f) in enumerate(outputs):
            # record lineage for regeneration after replica loss
            f.producer_task_id = task.task_id
            outputs[i] = (share(name, name), f)
        if isinstance(task, FunctionCall):
            lib = self.libraries.get(task.library_name)
            if lib is not None:
                # derived, never consulted for placement: one slot's
                # share of the allocation the library already holds
                task.resources = lib.resources.scaled(1.0 / lib.slots)
        elif self.resource_learning and not task.resources_explicit:
            task.resources = self.categories.first_allocation(
                task.category, task.resources
            )
        task.state = TaskState.READY
        task.submitted_at = self.port.now()
        self.tasks[task.task_id] = task
        if self.journal is not None:
            self.journal.record_submit(
                task.task_id,
                task.seq,
                task.tenant,
                task_spec(task),
                task.session_token,
            )
        if not (eligible and self._memo_try_hit(task)):
            self._enqueue(task)
        self.outstanding += 1
        acct.submitted += 1
        acct.admitted()
        self.port.request_pump()
        return task.task_id

    def cancel(self, task: Task) -> bool:
        """Withdraw a submitted task; False if already terminal."""
        if task.is_done or task.task_id not in self.tasks:
            return False
        if task.state == TaskState.READY:
            self._unpark(task.task_id)
            self._ready.discard(task)
            self._gc_task_inputs(task)
        elif task.state in (TaskState.DISPATCHED, TaskState.RUNNING):
            if task.state == TaskState.RUNNING and task.worker_id in self.workers:
                self.port.cancel_task(task)
            self._abort_placement(task)
            self._dispatched.pop(task.task_id, None)
            self._unstage(task)
            self._pop_running(task.task_id)
            self._gc_task_inputs(task)
        else:
            # awaiting retrieval: whatever still comes home finds no one
            self._finishing.pop(task.task_id, None)
        task.state = TaskState.CANCELLED
        task.result = TaskResult(exit_code=-1, failure="cancelled")
        task.input_names = None
        self._wake_consumers(task)
        self.outstanding -= 1
        self.tenants[task.tenant].ended()
        self.port.deliver(task, None)
        self.port.request_pump()
        return True

    def idle(self) -> bool:
        """True when no submitted task remains in any non-terminal stage
        and no result fetch is in flight."""
        return not (
            self._ready
            or self._dispatched
            or self._running
            or self._finishing
            or self._fetches
        )

    @property
    def ready_depth(self) -> int:
        """Tasks queued for placement — the autoscaler's load signal."""
        return len(self._ready)

    def on_task_result(
        self, worker_id: str, task_id: str, result: TaskResult
    ) -> Optional[Task]:
        """A worker reported a task attempt's outcome.

        Releases the placement, applies the sandbox/resource retry
        policies, and returns the task if the attempt stands (it is
        then :meth:`complete_task`'s — see :meth:`attempt_ended`, which
        pairs the two).  Returns None for stale reports, for a report
        from another worker than the one the attempt runs at (logged as
        ``report_ignored``), and for attempts that were requeued by a
        retry policy.
        """
        task = self._running.get(task_id)
        if task is None:
            return None
        if task.worker_id != worker_id:
            # taking it would finish the attempt at work elsewhere and
            # release its placement at a worker that holds none of it
            self.log.emit(
                self.port.now(), "report_ignored",
                worker=worker_id, task=task.task_id, category=task.worker_id,
            )
            return None
        self._pop_running(task_id)
        self._release(task, worker_id)
        # inputs stay pinned until complete_task/_requeue so that output
        # registration cannot evict the inputs the task just consumed
        task.finished_at = self.port.now()
        self.log.emit(
            task.finished_at, "task_end",
            worker=worker_id, task=task.task_id, category=task.category,
        )
        self.categories.record(
            task.category,
            result.measured or task.resources,
            exceeded=bool(result.exceeded),
        )
        if result.staging_time is not None:
            self._m_sandbox.observe(result.staging_time)
        if result.execution_time is not None:
            self._m_exec.observe(result.execution_time)
            if isinstance(task, FunctionCall):
                self._m_invoke.observe(result.execution_time)
        # sandbox failures mean an input vanished between dispatch and
        # execution (e.g. autonomous cache eviction won a race): replan
        # the transfers and retry rather than failing the task
        if result.failure == "sandbox" and task.retries_used < task.max_retries:
            self._requeue(task, reason="sandbox")
            return None
        # resource-exceeded retry policy (paper §2.1): grow to the
        # category's observed peak when learning, else scale the request
        if (
            result.exceeded
            and result.exit_code != 0
            and task.retries_used < task.max_retries
        ):
            if self.resource_learning:
                task.resources = self.categories.retry_allocation(
                    task.category, task.resources
                )
            else:
                task.resources = task.resources.scaled(task.retry_resource_growth)
            self._requeue(task, reason="resources")
            return None
        return task

    def _requeue(self, task: Task, reason: str = "retry") -> None:
        self._unpin(task)
        self._unstage(task)
        self._retry(task, "task_requeued", category=reason)
        self.port.request_pump()

    def _retry(self, task: Task, kind: str, **fields) -> None:
        """Put ``task`` back on the ready queue for one more attempt,
        logged as a ``kind`` event — the core every re-run shares: a
        retry policy's, a lost worker's, a lost result's, a lost
        output's regeneration.  What differs (unpinning, ledgers, input
        references) stays with the caller."""
        task.retries_used += 1
        task.state = TaskState.READY
        task.worker_id = None
        self._enqueue(task)
        self.log.emit(
            self.port.now(), kind,
            task=task.task_id, size=task.retries_used, **fields,
        )

    def _loss_budget(self, task: Task) -> int:
        """How many lost workers / regenerations one task may absorb."""
        limit = self.policy.loss_retries
        return task.max_retries if limit is None else limit

    def _unpin(self, task: Task) -> None:
        wid = task.worker_id
        if wid is None:
            return
        names = task.input_names
        if names:
            pinned = self._pinned[wid]
            for name in names:
                pinned[name] -= 1

    def attempt_ended(
        self,
        worker_id: str,
        task_id: str,
        result: TaskResult,
        produced: Iterable[tuple[str, int]] = (),
    ) -> None:
        """A worker said an attempt ended: everything from here to the
        application hearing of it is decided below, once for every
        runtime.

        ``produced`` lists the ``(cache name, size)`` of the outputs the
        report says the attempt left in the worker's cache; they become
        replicas once the attempt stands, keyed by the registry's own
        strings, and stamped with the instant the attempt ended.  A
        report that does not stand leaves none: what is neither held nor
        on its way there is unlinked.
        """
        task = self.on_task_result(worker_id, task_id, result)
        if task is None:
            stray = [
                name for name, _ in produced
                if not (
                    self.replicas.has_replica(name, worker_id)
                    or self.transfers.in_flight(name, worker_id)
                )
            ]
            if stray:
                self.port.delete_replica(worker_id, stray)
            return
        now = task.finished_at
        for name, size in produced:
            self._replica_reported(worker_id, name, size, now, store=True)
        self.complete_task(task, result)

    def complete_task(self, task: Task, result: TaskResult) -> None:
        """Finish an attempt that stands and whose outputs are registered.

        The completion waits (``WAITING_RETRIEVAL``) for the outputs
        that must come home first: the value the application reads from
        the task — when the attempt left its envelope and no earlier
        run delivered it — and every output declared ``bring_back``.
        Each rides the fetch plane; the last arrival finishes the task
        (:meth:`_retrieved`), and one that every source came up empty
        for sends the task back for another attempt
        (:meth:`_result_lost`).
        """
        self._unpin(task)
        self._gc_task_inputs(task)
        if (
            result.exit_code != 0
            and not result.failure
            and isinstance(task, FunctionCall)
        ):
            result.failure = f"invocation failed (exit {result.exit_code})"
        value = task.value_output()
        if value is not None:
            # value-carrying tasks leave a result envelope — a python
            # task even on exit 1 (the envelope then holds its exception)
            if result.exit_code != 0 and not (
                result.exit_code == 1 and isinstance(task, PythonTask)
            ):
                value = None
            elif task._output_set:
                # regeneration re-run: the value was delivered already
                value, result = None, task.result or result
        awaited = self._settle_outputs(task, value)
        if awaited is not None:
            count = self.replicas.replica_count
            missing = next(
                (f.cache_name for f in awaited if not count(f.cache_name)), None
            )
            if missing is None:
                self._await_outputs(task, result, awaited)
                return
            # fail loudly instead of handing the application a DONE
            # task whose output is nowhere
            tail = (result.output or "").strip()[-500:]
            result.failure = result.failure or (
                f"output {missing} never produced (exit {result.exit_code})"
                + (f": {tail}" if tail else "")
            )
        self._finish_task(task, result)
        self.port.request_pump()

    def _await_outputs(self, task: Task, result: TaskResult, awaited: list) -> None:
        """Park ``task`` until every ``awaited`` output came home."""
        task.state = TaskState.WAITING_RETRIEVAL
        task.result = result
        waiting = self._finishing[task.task_id] = _Retrieval(
            task, {f.cache_name for f in awaited}
        )
        self.port.request_pump()
        for f in awaited:
            self.fetch(f.cache_name, functools.partial(self._retrieved, waiting, f))

    def _settle_outputs(self, task: Task, value: Optional[File]) -> Optional[list]:
        """Top up the replication of the outputs ``task`` left behind;
        returns those its completion must bring home — ``value`` and
        every ``bring_back`` output — or None (the usual case)."""
        awaited = None
        replicate = self.temp_replica_count > 1
        for _, f in task.outputs:
            name = f.cache_name
            if replicate and name and self.replicas.replica_count(name) > 0:
                self._ensure_replication(name)
            if f is value or f.bring_back:
                if awaited is None:
                    awaited = []
                awaited.append(f)
        return awaited

    def _retrieved(
        self, waiting: _Retrieval, f: File, holder: Optional[str], payload
    ) -> None:
        """Fetch-plane waiter of one output a completion waits for."""
        task = waiting.task
        if self.closed or self._finishing.get(task.task_id) is not waiting:
            # a closing runtime fails its fetches only to unblock
            # waiters (the task stays awaiting, as the journal has it);
            # otherwise the attempt was settled without this output
            return
        name = f.cache_name
        if payload is None:
            self._result_lost(task, name)
            return
        if f.bring_back:
            # shared-storage mode (paper Fig. 13a): the manager holds
            # the data now and serves downstream readers; the result
            # left the cluster unless asked to stay
            self.set_fixed_source(name, MANAGER_SOURCE)
            if not f.keep_at_worker and self.replicas.has_replica(name, holder):
                self.port.delete_replica(holder, [name])
                self._replica_dropped(holder, name, "retrieved")
        else:
            self.port.decode_value(task, payload, task.result)
        waiting.awaited.discard(name)
        if not waiting.awaited:
            self._finish_task(task, task.result)
        self.port.request_pump()

    def _result_lost(self, task: Task, cache_name: str) -> None:
        """Every source of an output the completion waited for came up
        empty (its last holder left mid-retrieval).  A completion counts
        only while something backs it (OxyMake's rule), so this one is
        an attempt to repeat: the task re-runs within its loss budget,
        holding its inputs again, and fails naming the object beyond it.
        """
        del self._finishing[task.task_id]
        if task.retries_used < self._loss_budget(task):
            self._retry(task, "task_requeued", category="result_lost")
            self._reclaim_inputs(task)
        elif self.policy.strict_loss:
            raise RuntimeError(
                f"task {task.task_id} lost its result {cache_name} "
                f"{task.retries_used + 1} times; giving up"
            )
        else:
            task.result.failure = task.result.failure or (
                f"result {cache_name} lost with its last holder"
            )
            self._finish_task(task, task.result)
        self.port.request_pump()

    def _pop_running(self, task_id: str) -> Optional[Task]:
        """Remove a task from the running set, and from its tenant's."""
        task = self._running.pop(task_id, None)
        if task is not None:
            self.tenants[task.tenant].stopped()
        return task

    def _finish_task(self, task: Task, result: TaskResult) -> None:
        if task.is_done:
            return
        task.result = result
        ok = result.ok
        if (
            result.exit_code == 1
            and isinstance(task, PythonTask)
            and task._output_set
        ):
            ok = True  # the function's exception is delivered through output()
        tid = task.task_id
        # the one structure the state names (a caller may have taken the
        # task out of it already: a worker report pops it from running)
        prior, task.state = task.state, TaskState.DONE if ok else TaskState.FAILED
        if prior is TaskState.RUNNING:
            if tid in self._running:
                self._pop_running(tid)
        elif prior is TaskState.WAITING_RETRIEVAL:
            self._finishing.pop(tid, None)
        elif prior is TaskState.DISPATCHED:
            self._dispatched.pop(tid, None)
            self._unstage(task)
        else:
            self._unpark(tid)
            self._ready.discard(task)
        self.outstanding -= 1
        if task.state == TaskState.DONE:
            self.done_count += 1
        merkle = self._memo_pending.pop(task.task_id, None)
        if task.state == TaskState.DONE and merkle is not None and self.memo is not None:
            self._memo_record(task, merkle)
        regenerated = tid in self._regenerated
        if regenerated:
            self._regenerated.discard(tid)
        acct = self.tenants[task.tenant]
        acct.ended()
        if task.state == TaskState.DONE:
            acct.done += 1
            if not regenerated:
                # a regenerated completion was already counted once and
                # un-counted by the requeue; only the ledger field is
                # restored — the monotonic counter must not double-count
                self._tenant_counters[task.tenant]["done"].inc()
        else:
            acct.failed += 1
            self._tenant_counters[task.tenant]["failed"].inc()
        task.input_names = None
        self._wake_consumers(task)
        j = self.journal
        if j is not None:
            if task.state == TaskState.DONE:
                j.record_done(
                    task.task_id,
                    [
                        [f.cache_name, self.size_of(f.cache_name)]
                        for _, f in task.outputs
                        if f.cache_name
                    ],
                )
            else:
                j.record_failed(
                    task.task_id,
                    result.failure or f"exit {result.exit_code}",
                )
        if regenerated:
            return  # the application heard of this task when it first ended
        ref = None
        if (
            isinstance(task, FunctionCall)
            and task.state == TaskState.DONE
            and not task._output_set
        ):
            # finished by reference (fresh execution or memo hit): the
            # value stays in worker caches and only this ref moves
            ref = self.result_ref(task)
        self.port.deliver(task, ref)

    def _release(self, task: Task, worker_id: str) -> None:
        """Give back what :meth:`_dispatch` took at the worker: a call's
        slot of its library's allocation, or a task's share of the pool."""
        state = self.workers.get(worker_id)
        if state is not None:
            state.running.discard(task.task_id)
        if isinstance(task, FunctionCall):
            key = (worker_id, task.library_name)
            self._lib_load[key] -= 1
            if self._lib_load[key] <= 0:
                del self._lib_load[key]  # the ledger lists busy slots only
        elif state is not None:
            try:
                state.pool.release(task.task_id)
            except KeyError:
                pass
            if worker_id in self._undeployed:
                self._deploy_retry.add(worker_id)
        self._view_changed(worker_id)

    def _abort_placement(self, task: Task) -> None:
        """Undo a dispatch: release pool, slots and pins at the worker."""
        if task.worker_id in self.workers:
            self._release(task, task.worker_id)
            self._unpin(task)

    def _gc_task_inputs(self, task: Task) -> None:
        """Drop input references; collect task-lifetime files at zero."""
        names = task.input_names
        if not names:
            return
        for name in names:
            self._input_refs[name] -= 1
        doomed = collect_task_inputs(names, self.registry, self._input_refs)
        for name in names:  # attachment order, not the set's
            if name in doomed:
                self._forget(name)
                self._mark_stage_dirty(name)

    def _forget(self, cache_name: str, category: Optional[str] = None) -> None:
        """Unlink every replica of ``cache_name`` and log each deletion."""
        for holder in self.replicas.forget_name(cache_name):
            self.port.delete_replica(holder, [cache_name])
            self.log.emit(
                self.port.now(), "file_deleted",
                worker=holder, file=cache_name, category=category,
            )

    # -- waiting stages: who wakes them ---------------------------------

    def _mark_stage_dirty(self, cache_name: str) -> None:
        """A replica of ``cache_name`` vanished, a transfer of it failed
        or its fixed source changed: re-plan every stage consuming it."""
        for stages in self._consumers.get(cache_name, {}).values():
            self._stage_dirty |= stages

    def _slot_freed(self, source: str) -> None:
        """A transfer served by ``source`` ended: a stage deferred on a
        name it can serve may take the slot (:meth:`_slot_takers`)."""
        if source in self._slot_queue:
            self._slot_offers.add((source, None))
        elif source_kind(source) == "peer":
            for name in self._deferred_on:
                if self.replicas.has_replica(name, source):
                    self._slot_offers.add((source, name))

    def _slot_takers(self, source: str, name: Optional[str]):
        """The stages ``source`` has a slot to offer — those deferred on
        ``name``, or all queued behind a manager/URL source — oldest
        first, one at a time and only while it has one to give: often
        hundreds wait (one per queued task, or a fleet behind one
        common file), and a slot serves the first that takes it."""
        if name is None:
            queue = self._slot_queue.get(source, ())
        else:
            queue = self._deferred_on.get(name, ())
        for entry in tuple(queue):
            if not self.transfers.source_available(source):
                return
            yield entry

    def _woken(self, stage: _Stage) -> bool:
        """True when something ``stage`` waits for changed since it was
        last planned (or only the clock can tell)."""
        if stage in self._stage_dirty or stage in self._deferred_staging:
            return True
        return any(
            (source in stage.behind if name is None else name in stage.deferred)
            and self.transfers.source_available(source)
            for source, name in self._slot_offers
        )

    def _open_stage(
        self, order: tuple, consumer: Task, worker_id: str, start: Callable[[], None]
    ) -> _Stage:
        """Index a new stage of ``consumer``'s inputs to ``worker_id``;
        the caller records it where it will be found, then advances it."""
        stage = _Stage((*order, next(self._stage_seq)), consumer, worker_id, start)
        for name in consumer.input_cache_names():
            self._consumers.setdefault(name, {}).setdefault(worker_id, set()).add(stage)
        return stage

    def _close_stage(self, stage: _Stage) -> None:
        """Take a stage that starts, or is abandoned, out of every index."""
        if not stage.live:
            return
        stage.live = False
        self._stage_dirty.discard(stage)
        self._set_deferred(stage, ())
        wid = stage.worker_id
        for name in set(stage.consumer.input_cache_names()):
            by_worker = self._consumers[name]
            by_worker[wid].discard(stage)
            if not by_worker[wid]:
                del by_worker[wid]
                if not by_worker:
                    del self._consumers[name]

    def _set_deferred(self, stage: _Stage, names: Sequence[str]) -> None:
        """Re-queue ``stage`` under the inputs its plan found no free
        source for; it stays on the every-pump list only while one of
        them is behind a retry back-off, which no event ends."""
        if not names and not stage.deferred:
            return
        entry = (stage.order, stage)
        for index, keys in (
            (self._deferred_on, stage.deferred),
            (self._slot_queue, stage.behind),
        ):
            for key in keys:
                queue = index[key]
                del queue[bisect.bisect_left(queue, entry)]
                if not queue:
                    del index[key]
        stage.deferred = list(dict.fromkeys(names))
        fixed = {self.sources.get(name, MANAGER_SOURCE) for name in names}
        stage.behind = [s for s in fixed if source_kind(s) in ("manager", "url")]
        for name in stage.deferred:
            bisect.insort(self._deferred_on.setdefault(name, []), entry)
        for source in stage.behind:
            bisect.insort(self._slot_queue.setdefault(source, []), entry)
        now = self.port.now()
        if any(self._retry_until.get(name, 0.0) > now for name in names):
            self._deferred_staging.add(stage)
        else:
            self._deferred_staging.discard(stage)

    def _replan_woken(self) -> None:
        """The pump's staging step: plan the stages something woke since
        the last pump (plus those behind a retry back-off, which only
        the clock ends), in the order the every-pump scans had — tasks
        as dispatched; then, library by library, deployments that did
        not fit earlier (plain tasks held the cores at install time) and
        deployments waiting on environment files; then mini-task jobs
        waiting on their own inputs.  Slot offers are handed down their
        queues lazily, merged into that same order."""
        woken = self._stage_dirty | self._deferred_staging
        work: list[tuple] = [(stage.order, stage) for stage in woken]
        self._stage_dirty.clear()
        if self._deploy_retry:
            joined = {wid: n for n, wid in enumerate(self.workers)}
            for wid in self._deploy_retry:
                for i, lib in enumerate(self.libraries.values()):
                    if lib.installed and wid not in lib.state:
                        order = (_LIBRARY_STAGE, i, 0, joined[wid])
                        work.append((order, (lib, wid)))
            # a deployment that still does not fit re-enters ``_undeployed``
            self._undeployed -= self._deploy_retry
            self._deploy_retry.clear()
        work.sort(key=lambda item: item[0])
        offers, self._slot_offers = self._slot_offers, set()
        planned = set()
        for _, item in heapq.merge(
            work, *itertools.starmap(self._slot_takers, offers)
        ):
            if not isinstance(item, _Stage):
                self._deploy_library(*item)
            elif item.live and item not in planned:
                planned.add(item)
                self._advance(item)

    def _unstage(self, task: Task) -> None:
        """``task`` left DISPATCHED: its stage, if it waited, is over."""
        stage = self._task_stages.pop(task.task_id, None)
        if stage is not None:
            self._close_stage(stage)

    def set_fixed_source(self, cache_name: str, source: str) -> None:
        """``cache_name`` is served by ``source`` from now on (the bytes
        came home to the manager); stages that found no source for it
        plan again."""
        f = self.registry.by_name(cache_name)
        if f.source != source:
            f.source = source
        self._mark_stage_dirty(cache_name)

    # -- queued tasks the pump knows about ------------------------------

    def _enqueue(self, task: Task) -> None:
        """Put a READY task on the heap, vetted if its inputs are
        obtainable now; or park it at once when the producer of each
        missing one is queued or running, since no pump can place it
        before they deliver.  Anything else the pump looks at (and
        regenerates, parks or fails the task)."""
        if task.input_names is None:
            # back from an end (a lost output's regeneration), or
            # restored from the journal: stamped afresh
            task.input_names = task.input_cache_names()
        waiting = self._producers_pending(task)
        if waiting:
            self._ready.push(task, parked=True)
            self._await(task.task_id, waiting)
            return
        self._ready.push(task)
        if waiting is not None:
            self._ready.vet(task)

    def _producers_pending(self, task: Task) -> Optional[list[str]]:
        """The inputs of ``task`` that exist nowhere and that only a
        producer makes, when each one's producer is queued or running
        (an empty list: every input is obtainable); None when one has
        no such producer.  Reads state only."""
        waiting = []
        count, get = self.replicas.replica_count, self.registry.get
        for name in task.input_names:
            if count(name):
                continue
            f = get(name)
            if f is None or f.source != NO_SOURCE:
                continue
            producer = self.tasks.get(f.producer_task_id)
            if producer is None or producer.is_done:
                return None
            waiting.append(name)
        return waiting

    def _unvet_lost(self) -> None:
        """Queued tasks needing an input that lost its last replica with
        no source left to serve it are vetted no longer: the pump must
        look at them (and regenerate, park or fail them) itself."""
        lost = {
            name
            for name in self.replicas.take_emptied()
            if self._input_refs.get(name, 0) > 0
            and self.replicas.replica_count(name) == 0
            and self.sources.get(name, MANAGER_SOURCE) == NO_SOURCE
        }
        if lost:
            self._unvet_needing(lost)

    def _unvet_needing(self, names: set[str]) -> None:
        for task in self._ready.tasks():
            if not names.isdisjoint(task.input_names):
                self._ready.unvet(task)

    # -- parked ready tasks ---------------------------------------------

    def _park(self, entry: tuple, waiting: list[str]) -> None:
        """Take a READY task off the heap until its ``waiting`` inputs
        appear; until then no pump looks at it."""
        self._ready.park(entry)
        self._await(entry[3].task_id, waiting)

    def _await(self, task_id: str, waiting: list[str]) -> None:
        """A parked task waits for its ``waiting`` inputs to appear."""
        self._awaiting[task_id] = set(waiting)
        for name in waiting:
            self._parked_on.setdefault(name, set()).add(task_id)

    def _unpark(self, task_id: str) -> None:
        """Forget a parked task's waits and put it back on the heap
        where it stood (a no-op for a task that is not parked); the
        next pump judges it afresh — place, park again, or fail."""
        for name in self._awaiting.pop(task_id, ()):
            waiters = self._parked_on[name]
            waiters.discard(task_id)
            if not waiters:
                del self._parked_on[name]
        if self._ready.unpark(task_id):
            task = self.tasks[task_id]
            if self._inputs_obtainable(task):
                self._ready.vet(task)

    def _input_appeared(self, cache_name: str, worker_id: str) -> None:
        """``worker_id`` now holds a replica of ``cache_name``: the
        stages consuming it there and the stages anywhere that found no
        free source for it plan again; tasks parked on it wake once it
        was the last input they were waiting for; and a fetch parked on
        its regeneration asks the new holder (even one that could not
        serve the lost copy earlier)."""
        here = self._consumers.get(cache_name)
        if here is not None and worker_id in here:
            self._stage_dirty |= here[worker_id]
        if cache_name in self._deferred_on:
            self._slot_offers.add((worker_id, cache_name))
        for tid in self._parked_on.pop(cache_name, ()):
            names = self._awaiting[tid]
            names.discard(cache_name)
            if not names:
                self._unpark(tid)
        st = self._fetches.get(cache_name)
        if st is not None and st.asked is None:
            st.tried.discard(worker_id)
            self._fetch_advance(cache_name, st)

    def _wake_consumers(self, task: Task) -> None:
        """``task`` reached a terminal state: whoever is parked on an
        output it did not leave behind has nothing to wait for, and the
        pump must decide between regeneration and failure."""
        parked_on = self._parked_on
        for _, f in task.outputs:
            name = f.cache_name
            if name in parked_on and self.replicas.replica_count(name) == 0:
                for tid in list(parked_on[name]):
                    self._unpark(tid)

    def fail_tasks_needing(self, cache_name: str, reason: str) -> None:
        """Terminally fail every queued/staged task that needs a dead input."""
        doomed = [
            t
            for t in self._ready.tasks() + list(self._dispatched.values())
            if cache_name in t.input_names
        ]
        for t in doomed:
            if t.state == TaskState.DISPATCHED:
                self._abort_placement(t)
            self._gc_task_inputs(t)
            self._finish_task(
                t,
                TaskResult(
                    exit_code=-1, failure=f"input {cache_name} unavailable: {reason}"
                ),
            )

    # ------------------------------------------------------------------
    # replica and transfer bookkeeping
    # ------------------------------------------------------------------

    def register_replica(
        self, worker_id: str, cache_name: str, size: int, store: bool = False
    ) -> None:
        """Record that a worker now holds an object; wake waiting stages.

        ``store`` asks the runtime to persist the replica into its cache
        model first (the simulator inserts and may evict; the real
        worker already wrote it to disk before reporting).
        """
        self._add_replica(
            worker_id, cache_name, size,
            self.registry.get(cache_name), self.port.now(), store,
        )

    def _replica_reported(
        self, worker_id: str, cache_name: str, size: int, now: float, store: bool
    ) -> None:
        """A worker reported holding ``cache_name`` of ``size`` bytes, as
        of ``now``: the size is learnt and the replica registered, keyed
        by the registry's own string (a decoded name is a second copy)."""
        f = self.registry.get(cache_name)
        if f is not None:
            cache_name = f.cache_name
            f.size = size
        self._add_replica(worker_id, cache_name, size, f, now, store)

    def _add_replica(
        self,
        worker_id: str,
        cache_name: str,
        size: int,
        f: Optional[File],
        now: float,
        store: bool,
        category: Optional[str] = None,
    ) -> None:
        """:meth:`register_replica` of the declared file ``f`` (None if
        undeclared), its ``file_cached`` event stamped ``now``."""
        if store:
            level = CacheLevel.WORKFLOW if f is None else f.cache_level
            self.port.store_replica(worker_id, cache_name, size, level)
        try:
            self.replicas.add_replica(cache_name, worker_id, size)
        except ValueError:
            # a regenerated producer may emit a slightly different size;
            # keep the first-learned one rather than killing the runtime
            self.replicas.add_replica(cache_name, worker_id)
        self.log.emit(
            now, "file_cached",
            worker=worker_id, file=cache_name, size=size, category=category,
        )
        self._input_appeared(cache_name, worker_id)
        # a mini-task job at this worker does not wait for the pump: it
        # plans again at once (and may take the slot this arrival freed)
        jobs = self._staging.get(worker_id)
        for job in list(jobs.values()) if jobs else ():
            if job.stage.live and self._woken(job.stage):
                self._stage_dirty.discard(job.stage)
                self._advance(job.stage)

    def replica_evicted(self, worker_id: str, cache_name: str) -> None:
        """A worker dropped a replica on its own (cache pressure): the
        simulator's cache model, or a real worker's ``cache_invalid``."""
        size = self._replica_dropped(worker_id, cache_name, "evicted")
        self._m_evictions.inc()
        self._m_eviction_bytes.inc(size)

    def _replica_dropped(self, worker_id: str, cache_name: str, category: str) -> int:
        """One replica is gone: forget it, wake the stages reading it and
        log its deletion under ``category``; returns its size."""
        size = self.replicas.size_of(cache_name)
        self.replicas.remove_replica(cache_name, worker_id)
        self._mark_stage_dirty(cache_name)
        self.log.emit(
            self.port.now(), "file_deleted",
            worker=worker_id, file=cache_name, size=size, category=category,
        )
        return size

    def on_cache_update(
        self,
        worker_id: str,
        cache_name: str,
        size: int,
        transfer_id: Optional[str] = None,
    ) -> None:
        """A worker reported a newly cached object (possibly a transfer)."""
        if transfer_id is not None:
            self._finish_transfer(transfer_id, size=size)
        self._replica_reported(
            worker_id, cache_name, size, self.port.now(), store=False
        )
        self.port.request_pump()

    def on_cache_invalid(
        self,
        worker_id: str,
        cache_name: str,
        transfer_id: Optional[str] = None,
        reason: str = "transfer failed",
        corrupt: bool = False,
    ) -> None:
        """A worker lost or failed to obtain an object.

        ``corrupt`` marks checksum-verification failures: the *source's*
        copy is suspect, so it is treated as replica loss at the source
        (feeding lineage regeneration when it was the last copy) rather
        than as a defect of the destination or of the task.
        """
        cache_name = self.registry.own_name(cache_name)
        if transfer_id is None:
            # autonomous eviction, not a failed command
            self.replica_evicted(worker_id, cache_name)
            self.port.request_pump()
            return
        # (no replica lost: a transfer goes to a worker without one)
        self._mark_stage_dirty(cache_name)
        try:
            record = self.transfers.complete(transfer_id)
        except KeyError:
            record = None  # stale report (worker departed mid-flight)
        self._drop_job(worker_id, transfer_id)
        if record is None:
            self.port.request_pump()
            return
        source = record.source
        self._slot_freed(source)
        key = (cache_name, source)
        self._transfer_attempts[key] += 1
        attempts = self._transfer_attempts[key]
        self.log.emit(
            self.port.now(), "transfer_failed",
            worker=worker_id, file=cache_name, size=attempts, category=source,
        )
        if source_kind(source) == "peer":
            self._note_worker_failure(source, weight=2 if corrupt else 1)
        if corrupt:
            self._m_transfers_corrupt.inc()
            if source_kind(source) == "peer" and self.replicas.has_replica(
                cache_name, source
            ):
                self.replicas.remove_replica(cache_name, source)
                self.port.delete_replica(source, [cache_name])
                self.log.emit(
                    self.port.now(), "file_deleted",
                    worker=source, file=cache_name, category="corrupt",
                )
        if attempts <= TRANSFER_RETRIES:
            delay = self._backoff_delay(attempts)
            self._retry_at[key] = self.port.now() + delay
            self._retry_until[cache_name] = max(
                self._retry_at[key], self._retry_until.get(cache_name, 0.0)
            )
            self._schedule_pump(delay)
        if not self._source_remains(cache_name):
            if self.sources.get(cache_name) == NO_SOURCE:
                # every holder burned its budget: those replicas are
                # effectively lost — fall back to lineage regeneration
                self._forget(cache_name, "exhausted")
                if not self._regenerate(cache_name):
                    self.fail_tasks_needing(cache_name, reason)
            else:
                self.fail_tasks_needing(cache_name, reason)
        self.port.request_pump()

    def _source_remains(self, cache_name: str) -> bool:
        """True while some source still has retry budget for the object."""
        for holder in self.replicas.locate(cache_name):
            if self._transfer_attempts[(cache_name, holder)] <= TRANSFER_RETRIES:
                return True
        fixed = self.sources.get(cache_name, MANAGER_SOURCE)
        if fixed != NO_SOURCE:
            return self._transfer_attempts[(cache_name, fixed)] <= TRANSFER_RETRIES
        return False

    def on_transfer_complete(self, transfer_id: str) -> None:
        """A runtime-timed transfer or mini-task materialization
        delivered its object (simulator path)."""
        record = self._finish_transfer(transfer_id)
        if record is None:
            return  # cancelled: an endpoint departed mid-flight
        size = record.size
        f = self.registry.get(record.cache_name)
        if f is not None:
            size = f.size or 0
        self.register_replica(record.dest_worker, record.cache_name, size, store=True)
        self.port.request_pump()

    def _finish_transfer(
        self, transfer_id: str, size: Optional[int] = None
    ) -> Optional[Transfer]:
        """Close out a transfer record: accounting plus end events."""
        try:
            record = self.transfers.complete(transfer_id)
        except KeyError:
            return None
        self._slot_freed(record.source)
        # a delivered transfer clears the (object, source) failure budget
        # and redeems part of the serving worker's failure score
        key = (record.cache_name, record.source)
        self._transfer_attempts.pop(key, None)
        self._retry_at.pop(key, None)
        if source_kind(record.source) == "peer":
            self._note_worker_success(record.source)
        if record.source in self.draining:
            # migration off a draining worker landed: drain accounting
            stats = self._drain_stats.get(record.source)
            if stats is not None:
                stats["objects"] += 1
                stats["bytes"] += record.size
            self._m_drain_objects.inc()
            self._m_drain_bytes.inc(record.size)
        reported = size if size is not None else record.size
        if record.source == MINITASK_SOURCE:
            self._drop_job(record.dest_worker, transfer_id)
            self.transfer_counts["stage"] += 1
            self.log.emit(
                self.port.now(), "stage_end",
                worker=record.dest_worker, file=record.cache_name, size=reported,
            )
        else:
            kind = source_kind(record.source)
            self.transfer_counts[kind] += 1
            self.bytes_by_source[kind] += record.size
            self.log.emit(
                self.port.now(), "transfer_end",
                worker=record.dest_worker, file=record.cache_name,
                size=reported, category=record.source,
            )
        return record

    # ------------------------------------------------------------------
    # the result fetch plane: by-reference bytes resolved on demand
    # ------------------------------------------------------------------

    def result_ref(self, task: FunctionCall) -> Optional[ResultRef]:
        """Publish a completed call's result by reference.

        The value stays in worker caches; what the runtime hands on — a
        ``task_result`` notice, a lazy ``ResultProxy`` — is this
        descriptor, whose dereference comes back through :meth:`fetch`.
        Built once per completion, fresh executions and memo hits alike.
        """
        out = task.result_output()
        if out is None:
            return None  # a runtime whose calls leave no envelope
        name = out.cache_name
        self._m_proxies.inc()
        return ResultRef(
            cache_name=name,
            size=self.size_of(name),
            holders=tuple(sorted(self.replicas.locate(name))),
        )

    def fetch(self, cache_name: str, waiter, best_effort: bool = False) -> None:
        """Resolve ``cache_name`` to its bytes for ``waiter``.

        Result bytes stay in worker caches until something dereferences
        them — a client or application fetch, a value retrieval, the
        memo store retaining a payload.  ``waiter(worker_id, payload)``
        is called exactly once: with the serving source and the bytes,
        or ``(None, None)`` when every source came up empty.  Concurrent
        requests for one name share a single in-flight resolution.
        ``best_effort`` waiters (memo retention) never justify
        re-running the producer.
        """
        st = self._fetches.get(cache_name)
        fresh = st is None
        if fresh:
            st = self._fetches[cache_name] = _Fetch(started=self.port.now())
        st.waiters.append(waiter)
        st.needy |= not best_effort
        if fresh:
            self._fetch_advance(cache_name, st)
            if cache_name in self._fetches:
                self._schedule_pump(FETCH_TTL)  # the pump reaps stragglers

    def _fetch_advance(self, name: str, st: _Fetch) -> None:
        """Ask the next source for ``name``'s bytes.

        Source order: an untried live holder (lowest worker id, so the
        choice is deterministic), the memo store's retained payload,
        then lineage regeneration — the fetch parks (``asked=None``)
        until :meth:`_input_appeared` sees the regenerated replica.
        With nothing left the fetch settles as unservable.  Each ask
        opens a ``transfer_start`` that its serve (``transfer_end``) or
        its holder's failure to serve (``fetch_retried``) closes.
        """
        holders = [
            w
            for w in self.replicas.locate(name)
            if w in self.workers and w not in st.tried
        ]
        payload = None if holders else self._memo_payload_bytes(name)
        if holders or payload is not None:
            st.asked = min(holders) if holders else MANAGER_SOURCE
            # a retrieval is a fetch whose producer's completion awaits it
            retrieval = self._awaited_by(name) is not None
            st.category = "@retrieve" if retrieval else "@fetch"
            self.log.emit(
                self.port.now(), "transfer_start",
                worker=st.asked, file=name, size=self.size_of(name),
                category=st.category,
            )
            if holders:
                st.tried.add(st.asked)
                self.port.ask_holder(st.asked, name)
            else:
                self._fetch_settle(name, payload)
            return
        # a fetch a retrieval waits on — its own, or an earlier one it
        # joined — settles empty-handed once its holders are spent
        # rather than parking: its producer is not about to deliver, it
        # is the task waiting for this very fetch (a deadlock until the
        # TTL) — :meth:`_result_lost` sends it back for another attempt
        if (
            st.needy
            and self._awaited_by(name) is None
            and name in self.registry
            and self._regenerate(name)
        ):
            st.asked = None  # parked: the regenerated replica advances it
            self.port.request_pump()
            return
        self._fetch_settle(name, None)

    def _awaited_by(self, name: str) -> Optional[_Retrieval]:
        """The ended attempt whose completion waits for ``name``."""
        f = self.registry.get(name)
        waiting = self._finishing.get(f.producer_task_id) if f is not None else None
        if waiting is not None and name in waiting.awaited:
            return waiting
        return None

    def fetch_reply(
        self, worker_id: str, cache_name: str, payload: Optional[bytes]
    ) -> None:
        """The runtime's answer to :meth:`RuntimePort.ask_holder`.

        ``payload`` is None when the worker denies holding the object
        (evicted, corrupt): the fetch moves on to the next source
        instead of failing every waiter on one holder's say-so.  A
        runtime without real bytes (the simulator) answers ``b""`` and
        the declared size is accounted.  A reply from a holder the
        fetch has already moved on from is ignored.
        """
        st = self._fetches.get(cache_name)
        if st is None or st.asked != worker_id:
            return
        if payload is None:
            self._fetch_retire(cache_name, st, "not_found")
            self._fetch_advance(cache_name, st)
        else:
            self._fetch_settle(cache_name, payload)

    def _fetch_retire(self, name: str, st: _Fetch, reason: str) -> None:
        """The asked holder will not serve: close its ``transfer_start``."""
        self.log.emit(
            self.port.now(), "fetch_retried",
            worker=st.asked, file=name, category=reason,
        )
        st.asked = None

    def _fetch_settle(self, name: str, payload: Optional[bytes]) -> None:
        """Resolve an in-flight fetch: serve every waiter at once."""
        st = self._fetches.pop(name)
        if payload is None:
            if st.asked is not None:
                self._fetch_retire(name, st, "abandoned")
        else:
            size = len(payload) or self.size_of(name)
            # "fetch" is its own category beside "retrieve" (an output
            # the producer's completion waits for): a fetch moves bytes
            # only when something *dereferences* a result, which the
            # by-reference plane exists to make rare
            kind = st.category.lstrip("@")
            self.transfer_counts[kind] += 1
            self.bytes_by_source[kind] += size
            if kind == "fetch":
                self._m_fetch_serves.inc()
                self._m_fetch_bytes.inc(size)
            self.log.emit(
                self.port.now(), "transfer_end",
                worker=st.asked, file=name, size=size, category=st.category,
            )
        for waiter in st.waiters:
            waiter(st.asked, payload)

    def reap_fetches(self, ttl: float = FETCH_TTL) -> None:
        """Fail fetches older than ``ttl`` on the runtime's clock.

        A fetch normally resolves through holder replies, worker-loss
        retries or regeneration; this is the backstop for the ways
        those signals can be lost (a reply frame dropped mid-teardown, a
        regeneration whose producer hangs), so nobody waits on a fetch
        the manager has forgotten.  Every outermost pump runs it, and
        the wake-up scheduled here (and by :meth:`fetch`) guarantees
        one.  A closing runtime passes ``ttl=0``: no waiter may outlive
        the wires.
        """
        now = self.port.now()
        while self._fetches:
            # insertion order is age order: the first is the oldest left
            name, st = next(iter(self._fetches.items()))
            deadline = st.started + ttl
            if now < deadline:
                self._schedule_pump(deadline - now)
                return
            self._fetch_settle(name, None)

    # ------------------------------------------------------------------
    # failure scoring, backoff and blocklisting (robustness hardening)
    # ------------------------------------------------------------------

    def _backoff_delay(self, attempt: int) -> float:
        """Exponential backoff with deterministic jitter (50–150%)."""
        raw = min(TRANSFER_BACKOFF_MAX, TRANSFER_BACKOFF_BASE * (2 ** (attempt - 1)))
        return raw * (0.5 + self._rng.random())

    def _schedule_pump(self, delay: float) -> None:
        """Arrange a pump after ``delay``, coalescing pending wakeups."""
        if delay <= 0:
            self.port.request_pump()
            return
        wake = self.port.now() + delay
        if self._next_wake > self.port.now() and self._next_wake <= wake:
            return  # an earlier wakeup is already scheduled
        self._next_wake = wake
        self.port.schedule_pump(delay)

    def _transfer_gate(self, cache_name: str, source: str) -> int:
        """Scheduler hook: veto sources that are banned or backing off."""
        if self._transfer_attempts[(cache_name, source)] > TRANSFER_RETRIES:
            return GATE_BANNED
        if source in self.blocklist:
            return GATE_AVOID
        if self._retry_at.get((cache_name, source), 0.0) > self.port.now():
            return GATE_AVOID
        return GATE_OK

    def _note_worker_failure(self, worker_id: str, weight: int = 1) -> None:
        """Record a failure attributed to a worker; blocklist repeaters.

        A worker is never blocklisted when it is the last non-blocked
        connected worker — a degraded cluster beats an empty one.
        """
        if worker_id not in self.workers:
            return  # departed, or not actually a worker (url/manager)
        self.failure_scores[worker_id] += weight
        score = self.failure_scores[worker_id]
        if (
            worker_id not in self.blocklist
            and score >= BLOCKLIST_THRESHOLD
            and any(
                wid != worker_id and wid not in self.blocklist
                for wid in self.workers
            )
        ):
            self.blocklist.add(worker_id)
            # stages waiting for a slot at this holder may now fall
            # through to the fixed source instead
            for name, queue in self._deferred_on.items():
                if self.replicas.has_replica(name, worker_id):
                    self._stage_dirty.update(stage for _, stage in queue)
            self.log.emit(
                self.port.now(), "worker_blocklist",
                worker=worker_id, size=score,
            )
        self._view_changed(worker_id)  # its score, perhaps its eligibility

    def _note_worker_success(self, worker_id: str) -> None:
        if self.failure_scores[worker_id] > 0:
            self.failure_scores[worker_id] -= 1
            self._view_changed(worker_id)

    def note_fault(
        self,
        worker_id: Optional[str],
        category: str,
        cache_name: Optional[str] = None,
    ) -> None:
        """Record an *injected* fault (chaos runs) in the log and metrics.

        Called by the fault adapters (and the real manager's ``fault``
        message handler) so every injection is visible in the txn log
        next to the recovery actions it provoked.
        """
        self.log.emit(
            self.port.now(), "fault_injected",
            worker=worker_id, file=cache_name, category=category,
        )

    # ------------------------------------------------------------------
    # worker membership
    # ------------------------------------------------------------------

    def worker_joined(
        self,
        worker_id: str,
        pool: ResourcePool,
        cached: Iterable[tuple[str, int]] = (),
        rejoin: bool = False,
    ) -> WorkerState:
        """Register a new worker and adopt its pre-existing cache.

        ``rejoin`` marks a worker whose reconnect loop survived a
        manager restart; one arriving inside the recovery grace window
        counts toward the rejoin expectation that ends it early.
        """
        cached = list(cached)
        state = WorkerState(worker_id=worker_id, pool=pool)
        self.workers[worker_id] = state
        # a fresh registration under a reused id is a fresh worker: any
        # drain state belonging to the previous owner must not gate it
        self.draining.discard(worker_id)
        self._drain_released.discard(worker_id)
        self._drain_stats.pop(worker_id, None)
        self._view_changed(worker_id)
        self.log.emit(self.port.now(), "worker_join", worker=worker_id)
        for cache_name, size in cached:
            self.adopt_replica(
                worker_id, self.registry.own_name(cache_name), int(size)
            )
        if self._recovering or rejoin:
            if self._recovering:
                self._recovery_joined += 1
            self.log.emit(
                self.port.now(), "worker_rejoined",
                worker=worker_id, size=len(cached),
            )
        for lib in self.libraries.values():
            if lib.installed:
                self._deploy_library(lib, worker_id)
        self.port.request_pump()
        return state

    def worker_left(self, worker_id: str) -> None:
        """Recover from a departing worker: requeue its tasks, drop its
        replicas, and restore replication targets for surviving temps."""
        state = self.workers.pop(worker_id, None)
        if state is None:
            return
        self._view_changed(worker_id)
        self.log.emit(self.port.now(), "worker_leave", worker=worker_id)
        lost_names = self.replicas.remove_worker(worker_id)
        cancelled = self.transfers.cancel_for_worker(worker_id)
        # tasks consuming a lost replica or a cancelled in-flight
        # transfer must re-plan their staging on the next pump
        for name in lost_names:
            self._mark_stage_dirty(name)
        for record in cancelled:
            self._mark_stage_dirty(record.cache_name)
            self._slot_freed(record.source)
        for transfer_id in list(self._staging.get(worker_id, ())):
            self._drop_job(worker_id, transfer_id)
        self._undeployed.discard(worker_id)
        self._deploy_retry.discard(worker_id)
        self._pinned.pop(worker_id, None)
        for lib in self.libraries.values():
            if lib.state.pop(worker_id, None) == "ready":
                self.log.emit(
                    self.port.now(), "task_end",
                    worker=worker_id, task=f"{lib.name}@{worker_id}",
                    category="library",
                )
            stage = lib.stages.pop(worker_id, None)
            if stage is not None:
                self._close_stage(stage)
        lost_tasks = [
            t
            for t in list(self._dispatched.values()) + list(self._running.values())
            if t.worker_id == worker_id
        ]
        for task in lost_tasks:
            self._dispatched.pop(task.task_id, None)
            self._unstage(task)
            self._pop_running(task.task_id)
            self.port.cancel_task(task)  # discards its pending completion
            self._release(task, worker_id)
            if task.retries_used >= self._loss_budget(task):
                if self.policy.strict_loss:
                    raise RuntimeError(
                        f"task {task.task_id} lost {task.retries_used + 1} workers; "
                        "giving up"
                    )
                self._gc_task_inputs(task)
                self._finish_task(
                    task, TaskResult(exit_code=-1, failure="worker lost")
                )
                continue
            self._retry(task, "task_requeued", category="worker_lost")
        # a departed worker's failure history must not poison a future
        # worker that happens to reuse the id
        self.blocklist.discard(worker_id)
        self.failure_scores.pop(worker_id, None)
        # a crash mid-drain ends the drain the hard way; a clean release
        # just retires its bookkeeping (worker_drained already emitted)
        self.draining.discard(worker_id)
        self._drain_released.discard(worker_id)
        self._drain_stats.pop(worker_id, None)
        # restore the replication target of still-needed produced files,
        # and regenerate any that lost their final replica (lineage);
        # declaration order keeps recovery deterministic for a seed
        for name in self.registry.in_declaration_order(lost_names):
            if self._input_refs.get(name, 0) > 0:
                if self.replicas.replica_count(name) > 0:
                    self._ensure_replication(name)
                elif not self._regenerate(name):
                    self.fail_tasks_needing(
                        name, "lost with no recoverable lineage"
                    )
        # fetches asked of the departed worker move on to the next
        # holder instead of stranding their waiters until the TTL
        for name, st in list(self._fetches.items()):
            if st.asked == worker_id:
                self._fetch_retire(name, st, "worker_lost")
                self._fetch_advance(name, st)
        self.port.request_pump()

    # ------------------------------------------------------------------
    # graceful drain (elastic scale-down)
    # ------------------------------------------------------------------

    def drain_worker(self, worker_id: str) -> bool:
        """Begin a graceful departure for one worker.

        The worker keeps serving its running tasks and any peer
        transfers, but receives no new placements; objects it alone
        holds are re-replicated to survivors through the normal
        transfer machinery.  Once nothing references the worker any
        more, the port's ``finish_drain`` releases it
        (the sim removes it from the cluster, the real manager sends
        SHUTDOWN) and the eventual ``worker_left`` finds every needed
        replica already backed elsewhere — the opposite of a crash,
        which loses the cache and forces lineage regeneration.
        """
        state = self.workers.get(worker_id)
        if state is None or worker_id in self.draining:
            return False
        self.draining.add(worker_id)
        self._view_changed(worker_id)
        self._drain_stats[worker_id] = {"objects": 0, "bytes": 0}
        self.log.emit(self.port.now(), "worker_drain", worker=worker_id)
        self._replicate_for_drain(worker_id)
        self.port.request_pump()
        return True

    def _drain_sole_names(self, worker_id: str) -> list[str]:
        """Objects this worker alone holds that no fixed source backs,
        in declaration order (the deterministic migration order)."""
        sole = [
            name
            for name in self.replicas.holdings(worker_id)
            if self.replicas.replica_count(name) == 1
            and self.sources.get(name) == NO_SOURCE
        ]
        return self.registry.in_declaration_order(sole)

    def _replicate_for_drain(self, worker_id: str) -> int:
        """Migrate sole-holder objects off a draining worker.

        Starts one transfer per object (capacity permitting) with the
        draining worker as the source; returns how many objects still
        lack a safe copy — in-flight migrations count, objects no
        survivor can take do not (they are stranded, surfaced at
        release time instead of wedging the drain forever).
        """
        pending = 0
        incoming = {
            t.cache_name
            for t in self.transfers.active()
            if t.dest_worker not in self.draining
        }
        candidates = self._emptiest_survivors((worker_id,))
        for name in self._drain_sole_names(worker_id):
            if name in incoming:
                pending += 1
                continue
            if not candidates:
                continue  # stranded: no survivor exists to take it
            if not self.transfers.source_available(worker_id):
                pending += 1
                continue  # source slots busy; retried next pump
            self._start_transfer(name, worker_id, candidates[0])
            pending += 1
        return pending

    def _advance_drains(self) -> None:
        """Per-pump drain progress: re-kick migrations (new outputs may
        have landed, capacity may have freed) and release workers with
        nothing left to give."""
        for worker_id in sorted(self.draining - self._drain_released):
            state = self.workers.get(worker_id)
            if state is None:
                continue  # leave already processed
            pending = self._replicate_for_drain(worker_id)
            if state.running or pending:
                continue
            if any(r.task.worker_id == worker_id for r in self._finishing.values()):
                continue  # output retrieval still in flight
            if any(
                t.source == worker_id or t.dest_worker == worker_id
                for t in self.transfers.active()
            ):
                continue  # still serving (or receiving) a transfer
            self._finish_drain(worker_id)

    def _finish_drain(self, worker_id: str) -> None:
        stats = self._drain_stats.get(worker_id, {})
        stranded = self._drain_sole_names(worker_id)
        if stranded:
            # nothing could take these (no survivors): they die with the
            # worker and lineage regeneration covers any future readers
            self._m_drain_stranded.inc(len(stranded))
        self._drain_released.add(worker_id)
        self.log.emit(
            self.port.now(), "worker_drained",
            worker=worker_id,
            size=int(stats.get("bytes", 0)),
            category="stranded" if stranded else None,
        )
        self.port.finish_drain(worker_id)

    def autoscale_tick(self, scaler: Autoscaler) -> tuple[int, int]:
        """Size the fleet to the ready queue, once.

        ``scaler`` answers how many workers the fleet — connected and
        not already draining — should gain or lose for the current
        queue depth.  Growth is the runtime's to carry out: the first
        number returned is how many workers to start.  Shrinking is
        decided and begun here: the emptiest workers (fewest running
        tasks, then fewest cached bytes, then lowest id) are drained,
        and the second number is how many.  Either decision is logged
        as an ``autoscale`` event.
        """
        fleet = [wid for wid in self.workers if wid not in self.draining]
        delta = scaler.decide(self.port.now(), self.ready_depth, len(fleet))
        if delta == 0:
            return 0, 0
        if delta > 0:
            self._m_scale_up.inc(delta)
            self.log.emit(self.port.now(), "autoscale", size=delta, category="up")
            return delta, 0
        victims = sorted(
            fleet,
            key=lambda wid: (
                len(self.workers[wid].running), self._cached_bytes(wid), wid
            ),
        )[:-delta]
        self._m_scale_down.inc(len(victims))
        self.log.emit(
            self.port.now(), "autoscale", size=len(victims), category="down"
        )
        for wid in victims:
            self.drain_worker(wid)
        return 0, len(victims)

    # ------------------------------------------------------------------
    # crash recovery: journal restore + rejoin grace window
    # ------------------------------------------------------------------

    def recover(self, grace: float) -> bool:
        """Begin this manager life where a prior one left off: replay
        its journal and open the rejoin grace window.  False (and
        nothing done) when there is no journal or it holds no state."""
        if not self._restore_from_journal():
            return False
        self._begin_recovery(grace)
        return True

    def _restore_from_journal(self) -> bool:
        """Rebuild durable state from the journal of a prior manager life.

        Replays declares, tenant ledgers and task records into the live
        tables without re-journaling them.  Completed tasks come back
        ``DONE`` with their recorded outputs parked in the recovery
        await-set; the soundness rule is applied when the grace window
        closes (:meth:`_finish_recovery`): outputs a rejoining worker
        re-announced resume as-is, anything unbacked is replica loss and
        flows into lineage regeneration.  Returns True when a prior life
        left state behind.
        """
        j = self.journal
        if j is None or not j.recovered:
            return False
        stats = j.last_replay_stats
        now = self.port.now()
        j.writing = False
        try:
            for spec in j.declares.values():
                name = spec["name"]
                if name in self.registry:
                    continue
                f, source, _size = restore_file(spec)
                f = self.registry.register(f)
                if f.source != source:
                    f.source = source
            for tenant, rec in j.quotas.items():
                self.set_tenant_quota(tenant, rec.get("tasks"), rec.get("bytes"))
            for tenant, total in j.tenant_bytes.items():
                self.tenant_account(tenant).bytes_declared = total
            for rec in sorted(j.submits.values(), key=lambda r: r["seq"]):
                self._restore_task(rec, now)
            # a TASK-lifetime output no unfinished task reads was
            # collected when its last reader ended: it is not lost
            for name in collect_task_inputs(
                list(self._recovery_await), self.registry, self._input_refs
            ):
                del self._recovery_await[name]
            # after the tasks: a name their outputs place in a namespace
            # needs no owner on its record
            for tenant, names in j.tenant_names.items():
                self.tenant_add_names(tenant, sorted(names))
            self._task_seq = itertools.count(j.max_seq + 1)
        finally:
            j.writing = True
        self._m_replayed.inc(stats.replayed_records)
        self.log.emit(
            now, "manager_restart",
            size=stats.replayed_records,
            category=f"lifetime={stats.lifetime_records}",
        )
        return True

    def _restore_task(self, rec: dict, now: float) -> None:
        """Replay one journaled submit into the task tables."""
        j = self.journal
        tid = rec["id"]
        tenant = rec.get("tenant") or "default"
        done_rec = j.done.get(tid)
        failed_rec = j.failed.get(tid)
        acct = self.tenant_account(tenant)
        acct.submitted += 1
        # None: not re-executable (a serverless call, or inputs the
        # registry no longer knows).  A completed one still leaves its
        # recorded outputs to await re-adoption; a pending one is lost
        task = build_task(rec["spec"], self.registry)
        if task is None and done_rec is None and failed_rec is None:
            task = Task("@lost")
            failed_rec = {"reason": "not restorable across manager restart"}
        if task is not None:
            task.task_id = tid
            task.seq = int(rec["seq"])
            task.set_tenant(tenant)
            if rec.get("session"):
                task.session_token = rec["session"]
            for _, f in task.outputs:
                f.producer_task_id = tid
            self.tasks[tid] = task
        if failed_rec is not None:
            acct.failed += 1
            if task is not None:
                task.state = TaskState.FAILED
                task.result = TaskResult(
                    exit_code=-1, failure=failed_rec.get("reason", "failed")
                )
        elif done_rec is not None:
            self.done_count += 1
            acct.done += 1
            if task is not None:
                task.state = TaskState.DONE
                task.result = TaskResult(exit_code=0, output="restored")
                task.finished_at = now
                self._m_restored_done.inc()
            for name, size in done_rec.get("outputs", ()):
                f = self._learned(name, size)
                f.size = size
                self._recovery_await[f.cache_name] = size
                # (with no task restored to produce it, the record names the tenant)
                self.tenant_add_names(tenant, (f.cache_name,))
        else:
            task.state = TaskState.READY
            task.submitted_at = now
            for _, f in task.inputs:
                self._input_refs[f.cache_name] += 1
            self._enqueue(task)
            self.outstanding += 1
            acct.admitted()
            self._m_resumed.inc()

    def _begin_recovery(self, grace: float) -> None:
        """Open the rejoin grace window after a journal restore.

        The pump holds all placements until every worker the journal
        knew about rejoined (re-announcing its cache inventory) or
        ``grace`` elapsed, whichever is first; then
        :meth:`_finish_recovery` settles what survived.
        """
        self._recovering = True
        self._recovery_expected = len(self.journal.known_workers())
        self._recovery_joined = 0
        self._recovery_deadline = self.port.now() + max(0.0, grace)
        self.port.request_pump()

    def _recovery_ready(self) -> bool:
        """True once the grace window may close."""
        if self.port.now() >= self._recovery_deadline:
            return True
        if self._recovery_joined < self._recovery_expected:
            return False
        # worker ids are minted per manager life, so the join count
        # alone cannot prove the *holders* are back — a bystander
        # registering first must not trigger regeneration of outputs
        # whose holder is still reconnecting.  Close early only when
        # every awaited output is backed (or refetchable).
        return all(
            self.replicas.replica_count(name) > 0
            or self.sources.get(name, NO_SOURCE) != NO_SOURCE
            for name in self._recovery_await
        )

    def _finish_recovery(self) -> None:
        """Close the grace window: settle every awaited output.

        Outputs backed by a re-adopted replica (or a refetchable fixed
        source) resume without re-execution; the rest are replica loss
        and take the lineage path — regenerate while lineage and retry
        budgets allow, else fail the tasks that needed them.
        """
        self._recovering = False
        awaited = self._recovery_await
        self._recovery_await = {}
        self._recovery_backed = set()
        resumed = 0
        regenerated = 0
        lost = 0
        for name in self.registry.in_declaration_order(list(awaited)):
            if self.replicas.replica_count(name) > 0:
                resumed += 1
                continue
            if self.sources.get(name, NO_SOURCE) != NO_SOURCE:
                resumed += 1  # refetchable: transfer planning recovers it
                continue
            if self._regenerate(name):
                regenerated += 1
            else:
                lost += 1
                self.fail_tasks_needing(name, "lost across manager restart")
        self.log.emit(
            self.port.now(), "recovery_complete",
            size=resumed,
            category=f"regenerated={regenerated} lost={lost} "
            f"workers={self._recovery_joined}/{self._recovery_expected}",
        )

    def end_workflow(self) -> None:
        """The workflow is over: stop the libraries and delete what was
        to live no longer than it (paper §2.2 — ``TASK``/``WORKFLOW``
        files go "at the conclusion of the workflow", ``WORKER`` ones
        stay for the next).  The plane is ``closed`` from here on: it
        pumps nothing, and whoever still waits on a fetch hears that it
        came up empty before the runtime's wires go away.
        """
        self.closed = True
        self.reap_fetches(ttl=0.0)
        for lib in self.libraries.values():
            for worker_id, phase in lib.state.items():
                if phase == "ready":
                    self.log.emit(
                        self.port.now(), "task_end",
                        worker=worker_id, task=f"{lib.name}@{worker_id}",
                        category="library",
                    )
                self._free_library(lib.name, worker_id)
            lib.state.clear()
        for worker_id in self.workers:
            self._view_changed(worker_id)  # no library is ready anywhere
        deletions = collect_workflow(self.registry, self.replicas)
        # a fixed order — worker by worker, each in declaration order —
        # keeps the log of a seeded run replayable
        for worker_id in sorted(deletions):
            names = deletions[worker_id]
            for start in range(0, len(names), UNLINK_BATCH):
                batch = names[start : start + UNLINK_BATCH]
                self.port.delete_replica(worker_id, batch)
                now = self.port.now()
                for name in batch:
                    self.log.emit(now, "file_deleted", worker=worker_id, file=name)
                    self.replicas.remove_replica(name, worker_id)
        self.log.emit(self.port.now(), "workflow_done")
        self.replicas.take_emptied()  # no pass will ask what was lost

    # ------------------------------------------------------------------
    # fault recovery: regeneration and replication (paper §2.2/§3.2)
    # ------------------------------------------------------------------

    def _regenerate(self, cache_name: str) -> bool:
        """Re-execute the producer of a lost, still-needed temp file.

        Temp files record their producing task (paper §3.2 names them by
        the producer's spec); when every replica of one is lost and
        downstream tasks still reference it, the manager resubmits the
        producer.  Recursion through deeper lost lineage happens
        naturally: the resubmitted producer's own missing inputs are
        regenerated when it fails to find them.

        Returns True while recovery is possible or already in motion;
        False means the object is unrecoverable (no lineage, or the
        producer's retry budget is spent) and consumers should fail.
        """
        if self.sources.get(cache_name) != NO_SOURCE:
            return True  # refetchable: normal transfer planning recovers it
        f = self.registry.get(cache_name)
        producer_id = f.producer_task_id if f is not None else None
        producer = self.tasks.get(producer_id) if producer_id else None
        if producer is None:
            return False  # no lineage known: nothing can rebuild this
        if not producer.is_done:
            return True  # still running/queued: its outputs will (re)appear
        if producer.state != TaskState.DONE:
            return False  # failed/cancelled producer cannot be rerun
        if producer.retries_used >= self._loss_budget(producer):
            if self.policy.strict_loss:
                raise RuntimeError(
                    f"cannot regenerate {cache_name}: producer {producer_id} "
                    "exhausted its retries"
                )
            return False  # budget spent: consumers must fail, not loop
        self.done_count -= 1
        self.outstanding += 1
        acct = self.tenant_account(producer.tenant)
        acct.admitted()
        acct.done -= 1  # mirrors done_count: the completion is rescinded
        acct.regens += 1
        self._regenerated.add(producer.task_id)
        self._retry(producer, "file_regenerated", file=cache_name)
        return self._reclaim_inputs(producer)

    def _reclaim_inputs(self, task: Task) -> bool:
        """A finished attempt gave up its input references (and its
        task-lifetime inputs were collected): take them again for the
        re-run, regenerating those lost meanwhile.  False when one of
        them is unrecoverable."""
        ok = True
        for name in task.input_names:
            self._input_refs[name] += 1
            if (
                self.replicas.replica_count(name) == 0
                and self.sources.get(name) == NO_SOURCE
            ):
                ok &= self._regenerate(name)
        return ok

    def _ensure_replication(self, cache_name: str) -> None:
        """Start transfers until ``cache_name`` meets its replica target.

        Applies only to task-produced files (temps/outputs): inputs with
        an external source can always be refetched, produced data cannot.
        """
        if self.temp_replica_count <= 1:
            return
        if self.sources.get(cache_name) != NO_SOURCE:
            return  # refetchable from its source, or already at the manager
        have = self.replicas.locate(cache_name)
        needed = self.temp_replica_count - len(have)
        if needed <= 0 or not have:
            return
        candidates = [
            wid
            for wid in self._emptiest_survivors(have)
            if not self.transfers.in_flight(cache_name, wid)
        ]
        # serve from a holder that is not under suspicion — nor on its
        # way out of the cluster — when possible
        trusted = [
            w for w in have if w not in self.blocklist and w not in self.draining
        ]
        if not trusted:
            trusted = [w for w in have if w not in self.blocklist]
        source = min(trusted) if trusted else min(have)
        for wid in candidates[:needed]:
            if not self.transfers.source_available(source):
                break
            self._start_transfer(cache_name, source, wid)

    def _emptiest_survivors(self, holders) -> list[str]:
        """Where another copy of what ``holders`` have may go: workers
        other than them, not on their way out and not under
        suspicion, emptiest cache first."""
        return sorted(
            (
                wid
                for wid in self.workers
                if wid not in holders
                and wid not in self.draining
                and wid not in self.blocklist
            ),
            key=lambda wid: (self._cached_bytes(wid), wid),
        )

    def _cached_bytes(self, worker_id: str) -> int:
        return self.replicas.bytes_at(worker_id)  # O(1) incremental index

    # ------------------------------------------------------------------
    # the scheduling pump
    # ------------------------------------------------------------------

    def _view_of(self, worker_id: str, library: Optional[str]) -> Optional[WorkerView]:
        """Current scheduler view of one worker, or None if ineligible."""
        state = self.workers.get(worker_id)
        if state is None:
            return None
        if worker_id in self.blocklist:
            return None  # repeat offender: no new placements
        if worker_id in self.draining:
            return None  # on its way out: finish what it has, take no more
        if library is not None:
            lib = self.libraries[library]
            if lib.state.get(worker_id) != "ready":
                return None
            if self._lib_load[(worker_id, library)] >= lib.slots:
                return None
        return WorkerView(
            worker_id=worker_id,
            capacity=state.pool.capacity,
            allocated=state.pool.allocated,
            running_tasks=len(state.running),
        )

    def pump(self) -> None:
        """Advance scheduling: place ready tasks, plan missing transfers.

        Each outermost call's latency lands in ``pump.latency_seconds``
        (wall clock by design: it measures the policy code itself, not
        workflow time, so it is meaningful under both runtimes).
        Recursive pumps — lineage recovery — count inside their parent.
        """
        if self.closed:
            return
        if self._recovering:
            # recovery grace window: no placements until the previously
            # known workers re-announced their caches (or the deadline
            # passed) — dispatching earlier would re-run tasks whose
            # outputs are about to be re-adopted
            if self._recovery_ready():
                self._finish_recovery()
            else:
                self._schedule_pump(0.05)
                return
        if self._pump_depth:
            self._pump_body()
            return
        self._pump_depth = 1
        started = time.perf_counter()
        try:
            if self._fetches:
                self.reap_fetches()
            self._pump_body()
        finally:
            self._pump_depth = 0
            elapsed = time.perf_counter() - started
            self._m_pump.observe(elapsed)
            self._m_pump_us.observe(elapsed * 1e6)

    def _pump_body(self) -> None:
        # 0. memo hits deferred at submit complete now, after the submit
        # path (and the service layer's bookkeeping around it) unwound
        self._drain_memo_complete()

        # 1. placement
        recovered = self._place_ready()

        # 2. staging: re-plan the stages something woke since the last pump
        if (
            self._stage_dirty
            or self._slot_offers
            or self._deferred_staging
            or self._deploy_retry
        ):
            self._replan_woken()

        # 3. graceful drains: re-kick migrations, release finished ones
        if self.draining:
            self._advance_drains()

        # lineage producers resurrected mid-pump joined _ready after the
        # placement loop snapshot; place them now rather than waiting on
        # the next external event (recursion is bounded by lineage depth)
        if recovered:
            self.pump()

    def _place_ready(self) -> bool:
        """The pump's placement pass.  Returns whether lineage producers
        were resurrected (they wait for a re-pump).

        Ready tasks are popped from the priority heap in fair-share
        ``(-priority, seq)`` order and placed through the per-library-key
        indexes (:meth:`_index`), until the heap runs out or
        ``PLACEMENT_WINDOW`` tasks failed to place.  When the rest of
        that window can only fail (:meth:`_only_failures_left`) the pass
        ends at once and the ready queue turns its tenant ring as those
        failures would have: the same tasks are placed, in the same
        order, by a pass that does not probe what it knows.
        """
        self._unvet_lost()
        failures = 0
        recovered = False
        # entries pushed from this token onward (lineage producers
        # resurrected mid-loop) wait for the recursive re-pump — the
        # same snapshot semantics the sorted-list pump had
        snapshot = self._ready.snapshot_token
        stash: list = []
        entries = self._ready.pop_entries(snapshot)
        try:
            for entry in entries:
                task = entry[3]
                if task.state != TaskState.READY:
                    # failed terminally earlier in this very loop
                    self._ready.discard(task)
                    continue
                if not self._inputs_obtainable(task):
                    before = len(self._ready)
                    waiting = self._recover_lost_inputs(task)
                    recovered |= len(self._ready) > before
                    if task.state == TaskState.READY:
                        # every missing input now has a live producer:
                        # no pump can place the task before they all
                        # deliver or one ends, so it costs none until then
                        self._park(entry, waiting)
                    continue
                index = self._index(placement_key(task))
                wid = self.scheduler.choose_worker_indexed(task, index)
                if wid is None:
                    failures += 1
                    stash.append(entry)
                    self._ready.vet(task)  # its inputs were just found obtainable
                    if failures >= PLACEMENT_WINDOW:
                        break
                    if self._only_failures_left():
                        self._ready.skip(PLACEMENT_WINDOW - failures, snapshot)
                        break
                    continue
                self._ready.discard(task)
                self._dispatch(task, wid)
        finally:
            entries.close()  # returns mid-loop pushes to the heap
            for entry in stash:
                self._ready.restore(entry)
        return recovered

    def _only_failures_left(self) -> bool:
        """True when every entry the pass has not yielded yet would fail
        to place, each one counting a failure and going back to the heap.

        Every active task's inputs are known obtainable (none would be
        regenerated, parked or failed), and every ``(library
        key, pool request)`` class still queued is recorded infeasible
        in its index — which is exact, so each of them would get
        ``None`` from ``choose_worker_indexed``.  (Tasks queued during
        the pass count too, though the pass would not yield them.)
        """
        ready = self._ready
        self._unvet_lost()
        if not ready.all_vetted:
            return False
        # current: the failed probe before this read them (``_index``)
        for key, request in ready.classes():
            index = self._indexes.get(key)
            if index is None or not index.infeasible(request):
                return False
        return True

    def _index(self, key: Optional[str]) -> PlacementIndex:
        """The placement index of one library key, current, and built
        from every worker the first time it is asked for."""
        for worker_id in self._changed:  # every index takes them afresh
            for k, index in self._indexes.items():
                index.update(worker_id, self._view_of(worker_id, k))
        self._changed.clear()
        index = self._indexes.get(key)
        if index is None:
            views = {}
            for wid in self.workers:
                view = self._view_of(wid, key)
                if view is not None:
                    views[wid] = view
            index = self._indexes[key] = PlacementIndex(
                views, self.scheduler.failure_score
            )
        return index

    def _view_changed(self, worker_id: str) -> None:
        """Something a worker's views are made of — membership, pool,
        load, library slots, blocklist, drain, library state or failure
        score — may have changed: every placement index takes its view
        afresh before it is next read (however often it changed until
        then)."""
        if self._indexes:
            self._changed.add(worker_id)

    def _inputs_obtainable(self, task: Task) -> bool:
        """True when every input exists somewhere or can be produced."""
        for name in task.input_names:
            if self.replicas.replica_count(name) > 0:
                continue
            if self.sources.get(name, MANAGER_SOURCE) == NO_SOURCE:
                return False
        return True

    def _recover_lost_inputs(self, task: Task) -> list[str]:
        """Resurrect producers of temp inputs with no surviving replica.

        ``worker_left`` regenerates temps that were referenced at loss
        time, but a task submitted (or made ready) afterwards can still
        name a temp whose replicas are all gone — the pump re-triggers
        lineage for those here.  ``_regenerate`` is a no-op while the
        producer is already queued or running.  When lineage is
        exhausted (producer's retry budget spent, or no producer known)
        the consumers — ``task`` among them — are failed terminally
        instead of looping forever.

        Returns the missing inputs that now have a live producer: the
        names a still-READY ``task`` is parked on until all of them
        appeared (:meth:`_input_appeared`) or a producer ended without
        leaving its output (:meth:`_wake_consumers`).
        """
        waiting = []
        for name in task.input_names:
            if (
                self.replicas.replica_count(name) == 0
                and self.sources.get(name, MANAGER_SOURCE) == NO_SOURCE
            ):
                if self._regenerate(name):
                    waiting.append(name)
                else:
                    self.fail_tasks_needing(
                        name, "lineage exhausted: cannot regenerate"
                    )
        return waiting

    def _dispatch(self, task: Task, worker_id: str) -> None:
        state = self.workers[worker_id]
        if isinstance(task, FunctionCall):
            # a call runs in a slot of the allocation its library took
            # at deploy time (paper §3.4); the pool is not charged again
            self._lib_load[(worker_id, task.library_name)] += 1
        else:
            state.pool.allocate(task.task_id, task.resources)
        state.running.add(task.task_id)
        self._view_changed(worker_id)
        task.worker_id = worker_id
        task.state = TaskState.DISPATCHED
        self._dispatched[task.task_id] = task
        # hit/miss is judged once, at placement: did locality put the
        # task where its inputs already live, or must bytes move?
        names = task.input_names
        if not names:
            self._start_execution(task)
            return
        hits = sum(self.replicas.has_replica(name, worker_id) for name in names)
        self._m_cache_hits.inc(hits)
        self._m_cache_misses.inc(len(names) - hits)
        pinned = self._pinned[worker_id]
        for name in names:
            pinned[name] += 1
        if hits == len(names):
            self._start_execution(task)
            return
        stage = self._task_stages[task.task_id] = self._open_stage(
            (_TASK_STAGE,),
            task,
            worker_id,
            functools.partial(self._start_execution, task),
        )
        self._advance(stage)

    def pinned_at(self, worker_id: str) -> set[str]:
        """Cache names pinned by dispatched/running tasks at a worker."""
        return {n for n, c in self._pinned[worker_id].items() if c > 0}

    def _advance(self, stage: _Stage) -> None:
        """Plan the stage's missing inputs; start it when none is.

        Until then the stage waits, and is planned again only after an
        event that can change the plan: a replica of an input landing
        at its worker, vanishing anywhere, or a transfer of it failing
        (:meth:`_input_appeared`, :meth:`_mark_stage_dirty`); and, for
        an input no source had a free slot for, a new replica anywhere,
        a transfer ending at a source that can serve it
        (:meth:`_slot_freed`) or a holder being blocklisted.
        """
        wid = stage.worker_id
        plan = self.scheduler.plan_transfers(stage.consumer, wid, self.sources)
        for cache_name, source in plan.transfers:
            self._start_transfer(cache_name, source, wid)
        if plan.transfers or plan.pending or plan.deferred:
            self._set_deferred(stage, plan.deferred)
        else:
            self._close_stage(stage)
            stage.start()

    def _start_transfer(self, cache_name: str, source: str, dst_wid: str) -> None:
        size = self.size_of(cache_name)
        record = self.transfers.begin(cache_name, source, dst_wid, size, self.port.now())
        if source == MINITASK_SOURCE:
            f = self.registry.by_name(cache_name)
            assert isinstance(f, MiniTaskFile)
            job = StagingJob(
                file=f, worker_id=dst_wid, transfer_id=record.transfer_id
            )
            self._staging.setdefault(dst_wid, {})[record.transfer_id] = job
            job.stage = self._open_stage(
                (_JOB_STAGE,),
                f.mini_task,
                dst_wid,
                functools.partial(self._run_minitask, job),
            )
            self._advance(job.stage)
            return
        self.log.emit(
            self.port.now(), "transfer_start",
            worker=dst_wid, file=cache_name, size=size, category=source,
        )
        f = self.registry.get(cache_name)
        level = CacheLevel.WORKFLOW if f is None else f.cache_level
        if source == MANAGER_SOURCE:
            self.port.push_object(record, level)
        else:
            self.port.send_fetch(record, level)

    def _run_minitask(self, job: StagingJob) -> None:
        job.started = True
        self.log.emit(
            self.port.now(), "stage_start",
            worker=job.worker_id, file=job.file.cache_name,
        )
        self.port.run_minitask(job)

    def _drop_job(self, worker_id: str, transfer_id: str) -> None:
        """Forget the mini-task job (if it is one) behind a transfer to
        ``worker_id`` that ended, failed, or lost its worker."""
        jobs = self._staging.get(worker_id)
        if jobs is None or transfer_id not in jobs:
            return
        job = jobs.pop(transfer_id)
        if not jobs:
            del self._staging[worker_id]
        self._close_stage(job.stage)

    def _start_execution(self, task: Task) -> None:
        if task.state != TaskState.DISPATCHED:
            return
        tid = task.task_id
        self._dispatched.pop(tid, None)
        # its stage, if it waited, closed before calling this
        self._task_stages.pop(tid, None)
        self._running[tid] = task
        self.tenants[task.tenant].started()
        task.state = TaskState.RUNNING
        task.started_at = self.port.now()
        self.log.emit(
            task.started_at, "task_start",
            worker=task.worker_id, task=tid, category=task.category,
        )
        self.port.start_task(task)

    # ------------------------------------------------------------------
    # libraries (serverless hosts)
    # ------------------------------------------------------------------

    def install_library(self, name: str) -> None:
        """Deploy a created library to every current and future worker."""
        lib = self.libraries[name]
        for f in lib.env_files:
            if not self._declared(f):
                raise ManagerError(
                    f"environment file {f.label()} of library {name!r} "
                    "was not declared"
                )
        lib.installed = True
        for wid in list(self.workers):
            self._deploy_library(lib, wid)
        self.port.request_pump()

    def _deploy_library(self, lib: LibraryState, worker_id: str) -> None:
        if worker_id in lib.state:
            return
        state = self.workers[worker_id]
        if not state.pool.can_fit(lib.resources):
            # tried again once this worker's pool gives something back
            self._undeployed.add(worker_id)
            return
        state.pool.allocate(f"lib:{lib.name}", lib.resources)
        lib.state[worker_id] = "staging"
        self._view_changed(worker_id)
        pseudo = Task(f"deploy:{lib.name}")
        for i, f in enumerate(lib.env_files):
            pseudo.inputs.append((f"env{i}", f))
        pseudo.worker_id = worker_id
        stage = lib.stages[worker_id] = self._open_stage(
            (_LIBRARY_STAGE, list(self.libraries).index(lib.name), 1),
            pseudo,
            worker_id,
            functools.partial(self._launch_library, lib, worker_id),
        )
        self._advance(stage)

    def _launch_library(self, lib: LibraryState, worker_id: str) -> None:
        del lib.stages[worker_id]
        lib.state[worker_id] = "starting"
        self._view_changed(worker_id)
        self.log.emit(
            self.port.now(), "task_start",
            worker=worker_id, task=f"{lib.name}@{worker_id}", category="library",
        )
        self.port.launch_library(lib, worker_id)

    def on_library_ready(self, worker_id: str, name: str) -> None:
        """A library instance came up at a worker."""
        lib = self.libraries.get(name)
        if lib is None or lib.state.get(worker_id) != "starting":
            return
        lib.state[worker_id] = "ready"
        self._view_changed(worker_id)
        self.log.emit(
            self.port.now(), "library_ready", worker=worker_id, category=name
        )
        self.port.request_pump()

    def on_library_failed(self, worker_id: str, name: str) -> None:
        """A library failed to start at a worker."""
        lib = self.libraries.get(name)
        if lib is None:
            return
        lib.state[worker_id] = "failed"
        stage = lib.stages.pop(worker_id, None)
        if stage is not None:
            self._close_stage(stage)
        self.log.emit(
            self.port.now(), "library_failed", worker=worker_id, category=name
        )
        self._free_library(name, worker_id)
        if worker_id in self._undeployed:
            self._deploy_retry.add(worker_id)
        self.port.request_pump()

    def _free_library(self, name: str, worker_id: str) -> None:
        """Give back what an instance of ``name`` holds of the worker's
        pool (nothing, if it never got that far or the worker is gone)."""
        state = self.workers.get(worker_id)
        if state is not None:
            try:
                state.pool.release(f"lib:{name}")
            except KeyError:
                pass
        self._view_changed(worker_id)
