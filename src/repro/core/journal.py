"""Durable control-plane journal: crash-safe state for the always-on manager.

The paper's §3.2 content-addressed naming makes *data* outlive any one
workflow, and the service mode (PR 6) made the manager outlive any one
client — but the control plane itself lived only in memory: a ``kill -9``
erased every declared file, pending task, tenant ledger and client
session while worker caches and the memo store sat intact on disk.

This module closes that gap with a write-ahead journal in the style of
OxyMake's durable content-addressed state (PAPERS.md):

* :class:`Journal` — the framing layer.  An append-only file of
  length-prefixed JSON records (4-byte big-endian length + UTF-8
  payload), fsync'd per append — or, under group commit (the manager's),
  once per :meth:`Journal.sync` — next to an atomically-replaced
  ``snapshot.json``.  A crash can tear at most the trailing record;
  replay detects the torn tail, reports it, and truncates it away
  before the next append.

* :class:`ControlPlaneJournal` — the domain layer.  Folds the record
  stream into mirrors of the control plane's durable state (declares,
  quotas, sessions, task submits/completions, replica grants) and
  compacts them into a snapshot once ``snapshot_every`` records
  accumulate, so replay cost is bounded by the live state, not by run
  length.  Replica-grant records are *hints* — on restart the ground
  truth is the inventory each reconnecting worker re-announces — so
  compaction keeps only the latest location map.  The journal folds
  them from the plane's ``file_cached`` / ``file_deleted`` /
  ``worker_leave`` events, as an :class:`~repro.core.events.EventLog` sink.

* serializers — :func:`file_spec` / :func:`restore_file` and
  :func:`task_spec` / :func:`build_task` turn the runtime-agnostic
  parts of :class:`~repro.core.files.File` and
  :class:`~repro.core.task.Task` into JSON and back.  Buffer contents
  are inlined (base64, capped) so manager-held inputs survive the
  restart; mini-task and serverless specs are *not* replayable — their
  records restore enough naming for replica re-adoption, and anything
  beyond that flows into the existing lineage-regeneration path.

Soundness rule (OxyMake): a journaled fact is trusted after restart
only while something live backs it — a replica re-announced by a
worker, a refetchable source, or an md5-verified retained payload.
Everything else is treated as replica loss, never as truth.
"""

from __future__ import annotations

import base64
import json
import os
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.files import (
    BufferFile,
    CacheLevel,
    File,
    FileRegistry,
    LocalFile,
    RetrievedFile,
    TempFile,
    URLFile,
)
from repro.core.resources import Resources
from repro.core.task import PythonTask, Task
from repro.core.transfer_table import MINITASK_SOURCE, NO_SOURCE

if TYPE_CHECKING:
    from repro.core.events import Event

__all__ = [
    "Journal",
    "ControlPlaneJournal",
    "ReplayStats",
    "file_spec",
    "restore_file",
    "task_spec",
    "build_task",
]

_LEN = struct.Struct(">I")
SNAPSHOT_VERSION = 1
#: largest buffer-file payload inlined into a declare record; bigger
#: buffers are journaled without content and become unrecoverable
#: sources on restart (lineage regeneration or terminal failure applies)
MAX_INLINE_BYTES = 4 * 1024 * 1024


@dataclass
class ReplayStats:
    """Cost accounting for one journal replay."""

    #: records restored from the compacting snapshot
    snapshot_records: int = 0
    #: records replayed from the journal tail (since the last snapshot)
    tail_records: int = 0
    #: total records ever appended, including ones compacted away —
    #: the denominator for "replay cost is bounded by the snapshot"
    lifetime_records: int = 0
    #: bytes of torn trailing record discarded (crash artifact)
    torn_bytes: int = 0

    @property
    def replayed_records(self) -> int:
        """Records actually read back (snapshot + tail)."""
        return self.snapshot_records + self.tail_records


class Journal:
    """Append-only length-prefixed record log with atomic snapshots."""

    LOG_NAME = "journal.log"
    SNAPSHOT_NAME = "snapshot.json"

    def __init__(self, dirpath: str, fsync: bool = True) -> None:
        self.dir = dirpath
        os.makedirs(dirpath, exist_ok=True)
        self.log_path = os.path.join(dirpath, self.LOG_NAME)
        self.snapshot_path = os.path.join(dirpath, self.SNAPSHOT_NAME)
        self._fsync = fsync
        self._fh = None
        #: byte offset of the last cleanly-framed record (replay sets it;
        #: the first append truncates any torn tail beyond it)
        self._good_offset = 0
        self._replayed = False
        #: records currently in the journal tail (since the snapshot)
        self.pending_records = 0
        #: records appended over the journal's whole life
        self.lifetime_records = 0
        #: appends leave their fsync to the next :meth:`sync`
        self.group_commit = False
        #: records written to the log but not yet covered by an fsync
        self._unsynced = 0
        #: called after each fsync with the number of records it covered
        self.on_sync: Optional[Callable[[int], None]] = None

    # -- replay ---------------------------------------------------------

    def replay(self) -> tuple[list[dict], ReplayStats]:
        """Read snapshot + tail back; tolerate a torn trailing record."""
        stats = ReplayStats()
        records: list[dict] = []
        if os.path.exists(self.snapshot_path):
            try:
                with open(self.snapshot_path, encoding="utf-8") as fh:
                    snap = json.load(fh)
            except (OSError, ValueError):
                snap = None  # torn/corrupt snapshot: fall back to the log
            if isinstance(snap, dict) and snap.get("v") == SNAPSHOT_VERSION:
                records.extend(snap.get("records", ()))
                stats.snapshot_records = len(records)
                stats.lifetime_records = int(snap.get("lifetime_records", 0))
        tail, good_offset, torn = self._read_log()
        records.extend(tail)
        stats.tail_records = len(tail)
        stats.torn_bytes = torn
        stats.lifetime_records += len(tail)
        self._good_offset = good_offset
        self._replayed = True
        self.pending_records = len(tail)
        self.lifetime_records = stats.lifetime_records
        return records, stats

    def _read_log(self) -> tuple[list[dict], int, int]:
        """Parse the record log; stop cleanly at a torn tail."""
        records: list[dict] = []
        good = 0
        torn = 0
        if not os.path.exists(self.log_path):
            return records, good, torn
        with open(self.log_path, "rb") as fh:
            data = fh.read()
        offset = 0
        total = len(data)
        while offset < total:
            if offset + _LEN.size > total:
                torn = total - offset
                break
            (length,) = _LEN.unpack_from(data, offset)
            end = offset + _LEN.size + length
            if end > total:
                torn = total - offset
                break
            try:
                records.append(json.loads(data[offset + _LEN.size : end]))
            except ValueError:
                # the length prefix framed garbage: a crash landed mid-
                # write in a way that kept the prefix intact.  Nothing
                # after it can be trusted to be aligned.
                torn = total - offset
                break
            offset = end
            good = offset
        return records, good, torn

    # -- appending ------------------------------------------------------

    def append(self, record: dict) -> None:
        """Durably append one record (length prefix + JSON + fsync).

        Under group commit (:meth:`begin_group_commit`) the record is
        written at once but its fsync is left to the next :meth:`sync`;
        otherwise the record is on disk on return.
        """
        payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
        fh = self._open_for_append()
        fh.write(_LEN.pack(len(payload)) + payload)
        fh.flush()
        self._good_offset += _LEN.size + len(payload)
        self.pending_records += 1
        self.lifetime_records += 1
        self._unsynced += 1
        if not self.group_commit:
            self.sync()

    def begin_group_commit(self) -> None:
        """Leave every later append's fsync to :meth:`sync`, which the owner
        owes before anything the records caused is observed."""
        self.group_commit = True

    def sync(self) -> None:
        """One fsync for every record appended since the last."""
        if self._unsynced:
            if self._fsync:
                os.fsync(self._fh.fileno())
            self._mark_synced()

    def _mark_synced(self) -> None:
        """An fsync (the log's, or a snapshot's) covered what was owed."""
        covered, self._unsynced = self._unsynced, 0
        if self._fsync and self.on_sync is not None:
            self.on_sync(covered)

    def _open_for_append(self):
        if self._fh is None:
            if not self._replayed:
                self.replay()
            fh = open(self.log_path, "ab")
            if fh.tell() > self._good_offset:
                # drop the torn tail a crash left behind: appending past
                # it would hide every later record from the next replay
                fh.truncate(self._good_offset)
                fh.seek(self._good_offset)
            self._fh = fh
        return self._fh

    # -- compaction -----------------------------------------------------

    def compact(self, records: list[dict]) -> None:
        """Atomically snapshot ``records`` and reset the journal tail."""
        tmp = self.snapshot_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "v": SNAPSHOT_VERSION,
                    "lifetime_records": self.lifetime_records,
                    "records": records,
                },
                fh,
                separators=(",", ":"),
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.snapshot_path)
        self._fsync_dir()
        if self._unsynced:
            self._mark_synced()
        if self._fh is not None:
            self._fh.close()
        self._fh = open(self.log_path, "wb")
        if self._fsync:
            os.fsync(self._fh.fileno())
        self._good_offset = 0
        self.pending_records = 0

    def _fsync_dir(self) -> None:
        try:
            fd = os.open(self.dir, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir fds
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def close(self) -> None:
        if self._fh is not None:
            self.sync()
            self._fh.close()
            self._fh = None


class ControlPlaneJournal:
    """Domain layer: fold control-plane transitions, compact, replay."""

    def __init__(
        self, dirpath: str, snapshot_every: int = 1024, fsync: bool = True
    ) -> None:
        self.journal = Journal(dirpath, fsync=fsync)
        self.snapshot_every = max(8, snapshot_every)
        #: called after each automatic compaction with the snapshot size
        self.on_compact: Optional[Callable[[int], None]] = None
        #: False while the plane replays this journal (a replayed
        #: transition is not new) and once :meth:`close` ended the life
        self.writing = True
        #: (name, worker) hints of a prior life not re-announced since
        #: ``manager_restart``: gone at ``recovery_complete``
        self._unconfirmed: set[tuple[str, str]] = set()
        self.meta: dict = {}
        self.declares: dict[str, dict] = {}
        self.quotas: dict[str, dict] = {}
        self.tenant_bytes: dict[str, int] = {}
        self.tenant_names: dict[str, set[str]] = {}
        self.sessions: dict[str, dict] = {}
        self.submits: dict[str, dict] = {}
        self.done: dict[str, dict] = {}
        self.failed: dict[str, dict] = {}
        #: last-known replica locations, name -> {worker: size} (hints)
        self.replica_hints: dict[str, dict[str, int]] = {}
        self.max_seq = 0
        self.max_session_id = 0
        records, stats = self.journal.replay()
        for rec in records:
            self._fold(rec)
        self.last_replay_stats = stats

    # -- state queries --------------------------------------------------

    @property
    def recovered(self) -> bool:
        """True when a prior manager life left durable state behind."""
        return bool(self.declares or self.submits or self.sessions)

    def known_workers(self) -> set[str]:
        """Workers named by replica hints: the rejoin expectation set."""
        return {w for holders in self.replica_hints.values() for w in holders}

    # -- recording ------------------------------------------------------

    def _append(self, rec: dict) -> None:
        if self.writing:
            self._fold(rec)
            self.journal.append(rec)

    def _record(self, rec: dict) -> None:
        self._append(rec)
        # under group commit the owner owes one sync for its whole
        # sweep, and that sync snapshots: one now would fsync a fresh
        # log that the sweep's later records then need fsynced again
        if not self.journal.group_commit and self._compact_due():
            self._auto_compact()

    def _compact_due(self) -> bool:
        return self.journal.pending_records >= self.snapshot_every

    def _auto_compact(self) -> None:
        self.compact()
        if self.on_compact is not None:
            self.on_compact(self.journal.lifetime_records)

    def __call__(self, e: Event) -> None:
        """Sink protocol: write the replica change an event reports.  It
        never compacts (the snapshot's ``journal_snapshot``, emitted in a
        sink, would reach the later sinks ahead of the event sunk)."""
        kind, name, worker = e.kind, e.file, e.worker
        if kind == "file_cached":
            self._append({"op": "replica", "worker": worker, "name": name, "size": e.size})
            self._unconfirmed.discard((name, worker))
        elif kind == "file_deleted":
            self._gone(worker, name)
        elif kind == "worker_leave":
            for name in [n for n, at in self.replica_hints.items() if worker in at]:
                self._gone(worker, name)
        elif kind == "manager_restart":
            self._unconfirmed = {(n, w) for n, at in self.replica_hints.items() for w in at}
        elif kind == "recovery_complete":
            # a hint no rejoining worker backed is replica loss: the
            # next life must not wait for it
            for name, worker in sorted(self._unconfirmed):
                self._gone(worker, name)
            self._unconfirmed.clear()

    def _gone(self, worker_id: str, name: str) -> None:
        if worker_id in self.replica_hints.get(name, ()):
            self._append({"op": "replica_gone", "worker": worker_id, "name": name})

    def record_meta(self, **fields) -> None:
        self._record({"op": "meta", **fields})

    def record_declare(self, spec: dict) -> None:
        if spec["name"] in self.declares:
            return  # identical content re-declared: nothing new to learn
        self._record({"op": "declare", **spec})

    def record_quota(self, tenant: str, tasks, nbytes) -> None:
        self._record({"op": "quota", "tenant": tenant, "tasks": tasks, "bytes": nbytes})

    def record_tenant_bytes(self, tenant: str, n: int) -> None:
        self._record({"op": "tenant_bytes", "tenant": tenant, "n": n})

    def record_tenant_name(self, tenant: str, name: str) -> None:
        if name in self.tenant_names.get(tenant, ()):
            return
        self._record({"op": "tenant_name", "tenant": tenant, "name": name})

    def record_session(self, token: str, sid: str, tenant: str) -> None:
        self._record({"op": "session", "token": token, "sid": sid, "tenant": tenant})

    def record_session_closed(self, token: str) -> None:
        if token in self.sessions:
            self._record({"op": "session_closed", "token": token})

    def record_submit(
        self, task_id: str, seq: int, tenant: str, spec: dict, session: Optional[str]
    ) -> None:
        self._record(
            {
                "op": "submit",
                "id": task_id,
                "seq": seq,
                "tenant": tenant,
                "session": session,
                "spec": spec,
            }
        )

    def record_done(self, task_id: str, outputs: list) -> None:
        self._record({"op": "done", "id": task_id, "outputs": outputs})

    def record_failed(self, task_id: str, reason: str) -> None:
        self._record({"op": "failed", "id": task_id, "reason": reason})

    # -- folding --------------------------------------------------------

    def _fold(self, rec: dict) -> None:
        op = rec.get("op")
        if op == "meta":
            self.meta.update({k: v for k, v in rec.items() if k != "op"})
        elif op == "declare":
            self.declares.setdefault(rec["name"], rec)
        elif op == "quota":
            self.quotas[rec["tenant"]] = rec
        elif op == "tenant_bytes":
            if "total" in rec:
                self.tenant_bytes[rec["tenant"]] = rec["total"]
            else:
                self.tenant_bytes[rec["tenant"]] = (
                    self.tenant_bytes.get(rec["tenant"], 0) + rec["n"]
                )
        elif op == "tenant_name":
            self.tenant_names.setdefault(rec["tenant"], set()).add(rec["name"])
        elif op == "session":
            self.sessions[rec["token"]] = rec
            sid = rec.get("sid", "")
            if sid.startswith("C") and sid[1:].isdigit():
                self.max_session_id = max(self.max_session_id, int(sid[1:]))
        elif op == "session_closed":
            self.sessions.pop(rec["token"], None)
        elif op == "submit":
            self.submits[rec["id"]] = rec
            self.max_seq = max(self.max_seq, int(rec["seq"]))
        elif op == "done":
            self.done[rec["id"]] = rec
        elif op == "failed":
            self.failed[rec["id"]] = rec
        elif op == "replica":
            self.replica_hints.setdefault(rec["name"], {})[rec["worker"]] = rec["size"]
        elif op == "replica_gone":
            holders = self.replica_hints.get(rec["name"])
            if holders is not None:
                holders.pop(rec["worker"], None)
                if not holders:
                    del self.replica_hints[rec["name"]]
        # unknown ops from a newer writer are skipped, not fatal

    # -- compaction -----------------------------------------------------

    def compact(self) -> None:
        """Snapshot the folded state as a minimal equivalent record list.

        Drops everything replay does not need verbatim: per-grant
        replica records collapse to one latest-location record per
        object, superseded quota records to the last, incremental
        tenant-byte charges to totals, and closed sessions vanish.
        Task submit specs are kept even for completed tasks — lineage
        regeneration after a restart may need to re-execute them.
        """
        recs: list[dict] = []
        if self.meta:
            recs.append({"op": "meta", **self.meta})
        recs.extend(self.declares.values())
        recs.extend(self.quotas.values())
        for tenant, total in self.tenant_bytes.items():
            recs.append({"op": "tenant_bytes", "tenant": tenant, "total": total})
        for tenant, names in self.tenant_names.items():
            for name in sorted(names):
                recs.append({"op": "tenant_name", "tenant": tenant, "name": name})
        recs.extend(self.sessions.values())
        recs.extend(sorted(self.submits.values(), key=lambda r: r["seq"]))
        recs.extend(self.done.values())
        recs.extend(self.failed.values())
        for name, holders in self.replica_hints.items():
            for worker, size in holders.items():
                recs.append(
                    {"op": "replica", "worker": worker, "name": name, "size": size}
                )
        self.journal.compact(recs)

    def begin_group_commit(self) -> None:
        self.journal.begin_group_commit()

    def sync(self) -> None:
        """Make every appended record durable: the one fsync a group
        commit owes, or — with a compaction due — the snapshot, whose
        fsync covers every record folded into it."""
        if self._compact_due():
            self._auto_compact()
        else:
            self.journal.sync()

    def close(self) -> None:
        self.writing = False
        self.journal.close()


# ----------------------------------------------------------------------
# serializers: Files and Tasks <-> journal records
# ----------------------------------------------------------------------


def file_spec(f: File, source: str, size: int, tenant: Optional[str] = None) -> dict:
    """Serialize one declared file into a journal record body."""
    spec: dict = {
        "name": f.cache_name,
        "kind": f.kind,
        "level": int(f.cache_level),
        "size": size,
        "source": source,
    }
    if tenant is not None:
        spec["tenant"] = tenant
    if isinstance(f, BufferFile):
        if len(f.data) <= MAX_INLINE_BYTES:
            spec["data"] = base64.b64encode(f.data).decode("ascii")
    elif isinstance(f, URLFile):
        spec["url"] = f.url
    elif isinstance(f, LocalFile):
        spec["path"] = f.path
    elif isinstance(f, TempFile):
        spec["producer"] = f.producer_task_id
    for flag in ("bring_back", "keep_at_worker"):
        if getattr(f, flag):
            spec[flag] = True
    return spec


def restore_file(spec: dict) -> tuple[File, str, int]:
    """Rebuild a file handle (plus source and size) from its record.

    Sources that cannot be rematerialized by a restarted manager — a
    buffer whose bytes were too large to inline, a mini-task whose
    wrapped task is not journaled — come back with ``@none`` so the
    control plane treats them like produced data: live replicas back
    them, or lineage regeneration / terminal failure applies.
    """
    level = CacheLevel(spec.get("level", int(CacheLevel.WORKFLOW)))
    kind = spec.get("kind", "file")
    source = spec.get("source", NO_SOURCE)
    f: File
    if kind == "buffer":
        data = spec.get("data")
        if data is not None:
            f = BufferFile(base64.b64decode(data), level)
        else:
            f = File(level)
            source = NO_SOURCE  # bytes not retained: cannot re-push
    elif kind == "url":
        f = URLFile(spec.get("url", ""), level)
    elif kind == "local":
        f = LocalFile(spec.get("path", ""), level)
    elif kind == "temp":
        f = TempFile(level)
        f.producer_task_id = spec.get("producer")
    elif spec.get("bring_back") or spec.get("keep_at_worker"):
        f = RetrievedFile(
            level, bool(spec.get("bring_back")), bool(spec.get("keep_at_worker"))
        )
    else:
        f = File(level)
        if source == MINITASK_SOURCE:
            source = NO_SOURCE  # the wrapped mini task is not replayable
    f.cache_name = spec["name"]
    f.size = int(spec.get("size", 0) or 0)
    return f, source, f.size


def task_spec(task: Task) -> dict:
    """Serialize the runtime-agnostic parts of a submitted task."""
    from repro.core.library import FunctionCall

    if isinstance(task, FunctionCall):
        kind = "call"
    elif isinstance(task, PythonTask):
        kind = "python"
    else:
        kind = "command"
    r = task.resources
    spec: dict = {
        "kind": kind,
        "command": task.command,
        "category": task.category,
        "priority": task.priority,
        "deterministic": task.deterministic,
        "merkle": task.merkle,
        "max_retries": task.max_retries,
        "env": dict(task.env),
        "resources": {
            "cores": r.cores,
            "memory": r.memory,
            "disk": r.disk,
            "gpus": r.gpus,
        },
        "inputs": [[sb, f.cache_name] for sb, f in task.inputs],
        "outputs": [[sb, f.cache_name] for sb, f in task.outputs],
    }
    if task.sim_duration is not None:
        spec["sim"] = {
            "duration": task.sim_duration,
            "output_sizes": dict(task.sim_output_sizes),
        }
    return spec


def build_task(spec: dict, registry: FileRegistry) -> Optional[Task]:
    """Rebuild a re-executable task from its submit record, or None.

    Serverless calls are not restorable (their library payloads are
    runtime state, not journal state); neither is a task referencing a
    file the registry no longer knows.  Callers treat None as lost
    work: pending tasks fail cleanly, completed ones simply cannot be
    lineage-regenerated.
    """
    if spec.get("kind") == "call":
        return None
    task = Task(spec["command"])
    res = spec.get("resources", {})
    fields = {
        "category": spec.get("category", Task.category),
        "priority": spec.get("priority", Task.priority),
        "deterministic": bool(spec.get("deterministic", False)),
        "merkle": spec.get("merkle"),
        "max_retries": int(spec.get("max_retries", Task.max_retries)),
        "env": dict(spec.get("env", ())),
        "resources": Resources(
            cores=res.get("cores", 1),
            memory=res.get("memory", 0),
            disk=res.get("disk", 0),
            gpus=res.get("gpus", 0),
        ),
    }
    # a field at its class default stays one: a restored default task
    # gets an instance dict for ``resources_explicit`` alone
    for name, value in fields.items():
        if value != getattr(Task, name):
            setattr(task, name, value)
    task.resources_explicit = True
    try:
        for sandbox, name in spec.get("inputs", ()):
            task.add_input(registry.by_name(name), sandbox)
        for sandbox, name in spec.get("outputs", ()):
            task.add_output(registry.by_name(name), sandbox)
    except KeyError:
        return None
    sim = spec.get("sim")
    if sim is not None:
        task.sim_duration = float(sim.get("duration", 0.0))
        task.sim_output_sizes = dict(sim.get("output_sizes", {}))
    return task
