"""The persistent transaction log: versioned JSONL over workflow events.

Every evaluation figure in the paper is a view over the manager's
transaction log; this module makes that log a durable artifact instead
of an in-memory list.  A :class:`TransactionLogWriter` attaches to the
shared :class:`~repro.core.events.EventLog` as a sink, so both
runtimes stream the same schema to disk as events are emitted — one
JSON object per line, append-only, prefixed by a header record that
pins the schema version and names the emitting runtime.

The covered lifecycles (see :data:`repro.core.events.KINDS`):

========================  ====================================================
lifecycle                 kinds
========================  ====================================================
worker membership         ``worker_join`` / ``worker_leave``
elastic membership        ``worker_drain`` / ``worker_drained`` /
                          ``autoscale`` (graceful scale-down migrates
                          sole-holder replicas before departure)
task execution            ``task_start`` / ``task_end``
transfers                 ``transfer_start`` / ``transfer_end``
mini-task staging         ``stage_start`` / ``stage_end``
replicas and eviction     ``file_cached`` / ``file_deleted``
                          (``category="evicted"`` marks cache-pressure loss)
libraries                 ``library_ready`` / ``library_failed``
workflow                  ``workflow_done``
========================  ====================================================

Reading back, :func:`read_transactions` yields exactly the events that
were written and :func:`load_event_log` rebuilds an
:class:`~repro.core.events.EventLog`, so every analysis in
:mod:`repro.core.events` (task views, worker views, completion series,
peak transfer concurrency) regenerates from a file on disk.
"""

from __future__ import annotations

import json
import threading
from typing import IO, Iterable, Optional

from repro.core.events import KINDS, Event, EventLog

__all__ = [
    "TXN_SCHEMA_VERSION",
    "HEADER_KIND",
    "TransactionLogError",
    "TransactionLogWriter",
    "event_to_record",
    "record_to_event",
    "read_transactions",
    "load_event_log",
]

#: bump when a record field changes meaning; parsers reject newer logs
TXN_SCHEMA_VERSION = 1

#: pseudo-kind of the first line of every log file
HEADER_KIND = "@header"

#: record keys in emission layout (``t`` first for human scanning)
_FIELDS = ("t", "kind", "worker", "task", "file", "size", "category")


class TransactionLogError(ValueError):
    """A transaction log file could not be parsed."""


def event_to_record(event: Event) -> dict:
    """One event as its wire record (``None``/zero fields omitted)."""
    record: dict = {"t": event.time, "kind": event.kind}
    if event.worker is not None:
        record["worker"] = event.worker
    if event.task is not None:
        record["task"] = event.task
    if event.file is not None:
        record["file"] = event.file
    if event.size:
        record["size"] = event.size
    if event.category is not None:
        record["category"] = event.category
    return record


def record_to_event(record: dict) -> Event:
    """Parse one wire record back into an :class:`Event`."""
    try:
        kind = record["kind"]
        time = float(record["t"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TransactionLogError(f"malformed record {record!r}") from exc
    if kind not in KINDS:
        raise TransactionLogError(f"unknown event kind {kind!r}")
    return Event(
        time=time,
        kind=kind,
        worker=record.get("worker"),
        task=record.get("task"),
        file=record.get("file"),
        size=int(record.get("size", 0)),
        category=record.get("category"),
    )


class TransactionLogWriter:
    """Append-only JSONL writer, usable as an ``EventLog`` sink.

    The writer is called inline from ``EventLog.emit`` — on the real
    manager's reactor, or on the simulator's single thread — so each
    write is one buffered line plus an optional flush.  ``flush_every``
    bounds how many events a crash can lose (1 = flush per event, the
    default, since manager event rates are modest by design).
    """

    def __init__(
        self,
        path: str,
        runtime: str = "unknown",
        flush_every: int = 1,
        extra_header: Optional[dict] = None,
        resume: bool = False,
    ) -> None:
        self.path = path
        self.runtime = runtime
        self.flush_every = max(1, flush_every)
        self._lock = threading.Lock()
        self._since_flush = 0
        needs_newline = False
        if resume:
            # ``resume`` appends a fresh ``@header`` *segment* instead of
            # truncating: a restarted manager keeps the crashed life's
            # events in place.  If the crash tore the previous final
            # line, start on a fresh line so the reader sees exactly one
            # torn line followed by a segment header (the forgiven shape).
            try:
                with open(path, "rb") as prev:
                    prev.seek(0, 2)
                    if prev.tell() > 0:
                        prev.seek(-1, 2)
                        needs_newline = prev.read(1) != b"\n"
            except FileNotFoundError:
                pass
        self._file: Optional[IO[str]] = open(path, "a" if resume else "w")
        if needs_newline:
            self._file.write("\n")
        header = {
            "kind": HEADER_KIND,
            "v": TXN_SCHEMA_VERSION,
            "runtime": runtime,
            "fields": list(_FIELDS),
        }
        if resume:
            header["resumed"] = True
        if extra_header:
            header.update(extra_header)
        self._file.write(json.dumps(header) + "\n")
        self._file.flush()

    def __call__(self, event: Event) -> None:
        """Sink protocol: append one event (no-op after :meth:`close`)."""
        line = json.dumps(event_to_record(event))
        with self._lock:
            if self._file is None:
                return
            self._file.write(line + "\n")
            self._since_flush += 1
            if self._since_flush >= self.flush_every:
                self._file.flush()
                self._since_flush = 0

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        with self._lock:
            if self._file is not None:
                self._file.flush()
                self._file.close()
                self._file = None

    def __enter__(self) -> "TransactionLogWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _parse_lines(lines: Iterable[str], strict: bool) -> tuple[dict, list[Event]]:
    header: Optional[dict] = None
    events: list[Event] = []
    segments = 0
    torn = 0
    pending_error: Optional[TransactionLogError] = None
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            if pending_error is not None:
                raise pending_error  # two torn lines in a row is corruption
            # a torn line is expected when tailing a live log (final
            # line) or after a crash (the next line is a new segment
            # header); anything else following it is corruption
            pending_error = TransactionLogError(
                f"line {lineno}: invalid JSON: {exc}"
            )
            continue
        if isinstance(record, dict) and record.get("kind") == HEADER_KIND:
            version = record.get("v")
            if version != TXN_SCHEMA_VERSION:
                raise TransactionLogError(
                    f"unsupported schema version {version!r} "
                    f"(this reader supports {TXN_SCHEMA_VERSION})"
                )
            if pending_error is not None:
                # a torn line right before a segment header is the
                # signature of a crash: the old manager life died
                # mid-write and the restarted one appended a segment
                if strict:
                    raise pending_error
                torn += 1
                pending_error = None
            if header is None:
                header = record
            elif record.get("resumed"):
                # keep the first segment's identity, but surface that a
                # later life resumed the file
                header = dict(header)
                header["resumed"] = True
            segments += 1
            continue
        if header is None:
            raise TransactionLogError("missing @header record on line 1")
        if pending_error is not None:
            raise pending_error  # a bad line *followed by data* is corruption
        events.append(record_to_event(record))
    if header is None:
        raise TransactionLogError("empty transaction log (no header)")
    if pending_error is not None:
        if strict:
            raise pending_error
        torn += 1
    header = dict(header)
    header["segments"] = segments
    header["torn_lines"] = torn
    return header, events


def read_transactions(path: str, strict: bool = False) -> tuple[dict, list[Event]]:
    """Parse a transaction log into its header and ordered events.

    With ``strict=False`` (default) a torn *final* line — the normal
    state of a log being written concurrently — is ignored, as is a
    torn line directly before a mid-file ``@header`` (a manager crash
    followed by a resumed segment); corruption anywhere else always
    raises :class:`TransactionLogError`.  The returned header carries
    two synthesized keys: ``segments`` (how many manager lives wrote to
    the file) and ``torn_lines`` (how many tears were forgiven).
    """
    with open(path) as f:
        return _parse_lines(f, strict=strict)


def load_event_log(path: str) -> EventLog:
    """Rebuild an :class:`EventLog` from a transaction log on disk.

    The returned log feeds every analysis in :mod:`repro.core.events`
    exactly as the live in-memory log would.
    """
    _header, events = read_transactions(path)
    return EventLog.from_events(events)
