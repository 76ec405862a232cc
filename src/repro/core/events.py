"""Workflow event log and trace analysis.

Both runtimes emit the same event schema, and the evaluation figures
are derived views over it: the paper's *task view* (Fig. 12 top row —
one execution interval per task, sorted by start time) and *worker
view* (Fig. 9/10/11/12 bottom — per-worker timelines colored running /
transferring / idle).  Benchmarks regenerate figure series purely from
an :class:`EventLog`, so the analysis here is runtime-agnostic.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "Event",
    "EventLog",
    "TaskRow",
    "WorkerBusy",
    "task_rows",
    "worker_busy",
    "completion_series",
    "makespan",
    "peak_transfer_concurrency",
]

#: canonical event kinds emitted by the runtimes
KINDS = frozenset(
    {
        "worker_join",
        "worker_leave",
        "transfer_start",
        "transfer_end",
        "stage_start",  # mini-task materialization (unpacking etc.)
        "stage_end",
        "task_start",
        "task_end",
        "file_cached",
        "file_deleted",
        "library_ready",
        "library_failed",
        "workflow_done",
        # fault injection and recovery (chaos runs pair each injected
        # fault with the recovery action the control plane took)
        "fault_injected",
        "transfer_failed",
        "task_requeued",
        "file_regenerated",
        "worker_blocklist",
        # multi-tenant service mode: client sessions attach to a
        # long-lived manager; rejected requests and cross-tenant cache
        # reuse are first-class facts in the txn log
        "client_attach",
        "client_detach",
        "client_rejected",
        "client_expired",
        "cache_shared",
        # persistent memoization: a submitted task's merkle matched a
        # recorded result (hit), didn't (miss), or matched an entry
        # whose replicas/payloads were gone or corrupt (invalidated,
        # then regenerated rather than served)
        "memo_hit",
        "memo_miss",
        "memo_invalidated",
        # crash-safe manager: journal snapshots, restart replay, and the
        # rejoin grace window (workers re-announce caches, sessions
        # reattach by token, unbacked facts become replica loss)
        "journal_snapshot",
        "manager_restart",
        "worker_rejoined",
        "replica_readopted",
        "session_restored",
        "recovery_complete",
        # result fetch plane: the worker asked to serve a fetch died (or
        # denied holding the object) and the fetch moved on to the next
        # holder / memo payload / lineage regeneration
        "fetch_retried",
        # elastic clusters: a worker announces a graceful departure
        # (worker_drain), the manager finishes migrating its sole-holder
        # objects and releases it (worker_drained), and an autoscaler
        # policy decides to grow or shrink the fleet (autoscale, with
        # category "up"/"down")
        "worker_drain",
        "worker_drained",
        "autoscale",
    }
)


@dataclass(frozen=True, slots=True)
class Event:
    """One timestamped fact about workflow execution."""

    time: float
    kind: str
    worker: Optional[str] = None
    task: Optional[str] = None
    file: Optional[str] = None
    size: int = 0
    category: Optional[str] = None


class EventLog:
    """Append-only, time-ordered record of workflow events.

    Sinks attached via :meth:`attach` see each event as it is emitted —
    this is how a :class:`~repro.observe.txnlog.TransactionLogWriter`
    streams the log to disk while the run is still in flight.  Sinks
    run inline under the emitter's lock, so they must be cheap and must
    not re-enter the control plane.
    """

    def __init__(self) -> None:
        self._events: list[Event] = []
        self._sinks: list = []

    @classmethod
    def from_events(cls, events) -> "EventLog":
        """Rebuild a log from an event iterable (e.g. a parsed file)."""
        log = cls()
        for e in events:
            if e.kind not in KINDS:
                raise ValueError(f"unknown event kind {e.kind!r}")
            log._events.append(e)
        return log

    def attach(self, sink) -> None:
        """Register a callable invoked with each subsequently emitted event."""
        self._sinks.append(sink)

    def emit(self, time: float, kind: str, **fields) -> Event:
        """Append an event; ``kind`` must be one of the canonical kinds."""
        if kind not in KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        e = Event(time=time, kind=kind, **fields)
        self._events.append(e)
        for sink in self._sinks:
            sink(e)
        return e

    def events(self, kind: Optional[str] = None) -> list[Event]:
        """All events, or only those of one kind, in emission order."""
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)


@dataclass(frozen=True, slots=True)
class TaskRow:
    """One row of the paper's task view: a task's execution interval."""

    task_id: str
    category: str
    worker: str
    start: float
    end: float


@dataclass
class WorkerBusy:
    """Per-worker activity totals over the run (worker-view summary).

    ``executing``/``transferring``/``staging`` are the total seconds in
    which *at least one* task / transfer / stage operation was active at
    the worker; ``idle`` is connected time with none.  Overlapping
    activities are counted once per category, matching how the figures
    color a worker row.
    """

    worker_id: str
    connected: float = 0.0
    executing: float = 0.0
    transferring: float = 0.0
    staging: float = 0.0

    @property
    def idle(self) -> float:
        busy = self._union_busy if self._union_busy is not None else (
            self.executing + self.transferring + self.staging
        )
        return max(0.0, self.connected - busy)

    #: filled in by the analyzer: seconds with *any* activity (union)
    _union_busy: Optional[float] = None


def task_rows(log: EventLog) -> list[TaskRow]:
    """Extract the task view: one (start, end) interval per task.

    Tasks with a start but no end (cancelled mid-run) are dropped, as
    the figures only show completed intervals.
    """
    starts: dict[str, Event] = {}
    rows: list[TaskRow] = []
    for e in log:
        if e.kind == "task_start" and e.task is not None:
            starts[e.task] = e
        elif e.kind == "task_end" and e.task in starts:
            s = starts.pop(e.task)
            rows.append(
                TaskRow(
                    task_id=e.task,
                    category=s.category or "default",
                    worker=s.worker or "?",
                    start=s.time,
                    end=e.time,
                )
            )
    rows.sort(key=lambda r: (r.start, r.task_id))
    return rows


def _merged_length(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    if not intervals:
        return 0.0
    intervals.sort()
    total = 0.0
    cur_s, cur_e = intervals[0]
    for s, e in intervals[1:]:
        if s > cur_e:
            total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    total += cur_e - cur_s
    return total


def worker_busy(log: EventLog, horizon: Optional[float] = None) -> dict[str, WorkerBusy]:
    """Summarize per-worker activity (the worker view, Fig. 9/12 bottom).

    ``horizon`` closes still-open intervals (defaults to the last event
    time).  Overlapping same-kind intervals are merged before summing.
    """
    if horizon is None:
        horizon = max((e.time for e in log), default=0.0)
    open_since: dict[tuple[str, str], list[float]] = {}
    spans: dict[str, dict[str, list[tuple[float, float]]]] = {}
    joins: dict[str, float] = {}
    connected: dict[str, float] = {}

    def close(worker: str, kind: str, end: float) -> None:
        stack = open_since.get((worker, kind))
        if stack:
            start = stack.pop()
            spans.setdefault(worker, {}).setdefault(kind, []).append((start, end))

    pairs = {
        "task_start": ("task_end", "executing"),
        "transfer_start": ("transfer_end", "transferring"),
        "stage_start": ("stage_end", "staging"),
    }
    enders = {v[0]: k for k, v in pairs.items()}
    # a result fetch whose asked holder never served ends here instead
    enders["fetch_retried"] = "transfer_start"
    for e in log:
        if e.worker is None:
            continue
        if e.kind == "worker_join":
            joins[e.worker] = e.time
        elif e.kind == "worker_leave":
            connected[e.worker] = connected.get(e.worker, 0.0) + (
                e.time - joins.pop(e.worker, e.time)
            )
        elif e.kind in pairs:
            open_since.setdefault((e.worker, pairs[e.kind][1]), []).append(e.time)
        elif e.kind in enders:
            close(e.worker, pairs[enders[e.kind]][1], e.time)

    # close whatever is still open at the horizon
    for (worker, kind), stack in open_since.items():
        for start in stack:
            spans.setdefault(worker, {}).setdefault(kind, []).append((start, horizon))
    for worker, since in joins.items():
        connected[worker] = connected.get(worker, 0.0) + (horizon - since)

    out: dict[str, WorkerBusy] = {}
    workers = set(connected) | set(spans)
    for w in workers:
        by_kind = spans.get(w, {})
        busy = WorkerBusy(worker_id=w, connected=connected.get(w, horizon))
        busy.executing = _merged_length(list(by_kind.get("executing", [])))
        busy.transferring = _merged_length(list(by_kind.get("transferring", [])))
        busy.staging = _merged_length(list(by_kind.get("staging", [])))
        all_spans = [iv for ivs in by_kind.values() for iv in ivs]
        busy._union_busy = _merged_length(all_spans)
        out[w] = busy
    return out


def completion_series(
    log: EventLog, points: int = 50, category: Optional[str] = None
) -> list[tuple[float, int]]:
    """Cumulative tasks-completed-over-time curve (Fig. 12 task ramps).

    Returns ``points`` evenly spaced (time, completed count) samples
    from 0 to the last completion, optionally restricted to a category.
    """
    end_times = sorted(
        e.time
        for e in log.events("task_end")
        if category is None or e.category == category
    )
    if not end_times:
        return []
    horizon = end_times[-1]
    samples = []
    for i in range(points + 1):
        t = horizon * i / points
        samples.append((t, bisect.bisect_right(end_times, t)))
    return samples


def peak_transfer_concurrency(log: EventLog) -> dict[str, int]:
    """Replay transfer events into per-source peak concurrency.

    ``transfer_start``/``transfer_end`` carry the serving source in
    their ``category`` field (a worker id, ``@manager``, or a URL host
    key).  The peak is the largest number of simultaneously open
    transfers each source ever served — the quantity the Current
    Transfer Table's per-source limits bound (paper Fig. 11).  Events
    are replayed in *emission* order so same-timestamp start/end pairs
    resolve exactly as the control plane saw them; sources such as
    ``@retrieve`` (result bring-back, not limit-governed) appear in the
    result and can be filtered by the caller.
    """
    open_now: dict[str, int] = {}
    peak: dict[str, int] = {}
    for e in log:
        if e.category is None:
            continue
        if e.kind == "transfer_start":
            open_now[e.category] = open_now.get(e.category, 0) + 1
            peak[e.category] = max(peak.get(e.category, 0), open_now[e.category])
        elif e.kind == "transfer_end":
            open_now[e.category] = max(0, open_now.get(e.category, 0) - 1)
    return peak


def makespan(log: EventLog) -> float:
    """Workflow duration: time of the last task completion (or last event)."""
    ends = [e.time for e in log.events("task_end")]
    if ends:
        return max(ends)
    return max((e.time for e in log), default=0.0)
