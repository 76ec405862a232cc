"""``repro-status``: a live status table over a transaction log.

The real manager and the simulator both stream their events to a
transaction log (see :mod:`repro.observe.txnlog`); this CLI replays
that file into the current world state — connected workers, running
tasks, open transfers, cached bytes — and renders an aligned table.
Because the log is append-only JSONL, pointing the CLI at the file a
*running* manager is writing gives a live view (``--follow`` re-reads
and redraws), and pointing it at a finished log summarizes the run::

    repro-status /tmp/run.jsonl              # one snapshot
    repro-status /tmp/run.jsonl --follow     # live table, ^C to stop
    repro-status /tmp/run.jsonl --metrics /tmp/metrics.json

This is the ``vine_status`` idiom: read-only, zero coupling to the
manager process, works the same for both runtimes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.control_plane import source_kind
from repro.core.events import Event
from repro.observe.txnlog import read_transactions

__all__ = [
    "LogStatus",
    "replay_status",
    "format_log_status",
    "format_queue_line",
    "format_disk_lines",
    "format_tenant_table",
    "main",
]


@dataclass
class _WorkerReplay:
    connected: bool = True
    running: set = field(default_factory=set)
    cached_objects: int = 0
    cached_bytes: int = 0


@dataclass
class LogStatus:
    """World state reconstructed from a transaction log prefix."""

    runtime: str = "unknown"
    horizon: float = 0.0
    workers: dict[str, _WorkerReplay] = field(default_factory=dict)
    tasks_running: int = 0
    tasks_done: int = 0
    transfers_open: int = 0
    transfers_done: int = 0
    stages_open: int = 0
    stages_done: int = 0
    bytes_by_kind: dict[str, int] = field(default_factory=dict)
    libraries_ready: dict[str, int] = field(default_factory=dict)
    workflow_done: bool = False
    #: chaos-run bookkeeping: injected faults by category, and the
    #: recovery actions the control plane answered with
    faults_by_category: dict[str, int] = field(default_factory=dict)
    transfers_failed: int = 0
    tasks_requeued: int = 0
    files_regenerated: int = 0
    workers_blocklisted: int = 0
    #: service mode: client sessions seen attaching, requests refused,
    #: and cross-tenant cache reuse events
    clients_attached: int = 0
    clients_rejected: int = 0
    cache_shared: int = 0
    #: persistent memoization: deterministic resubmissions served from
    #: the store, ones that had to run, and entries invalidated at
    #: lookup (OxyMake's rule: never serve an unsound entry)
    memo_hits: int = 0
    memo_misses: int = 0
    memo_invalidated: int = 0
    memo_bytes_saved: int = 0
    #: crash-safe manager: restarts seen in the log, journal snapshots,
    #: and what the rejoin grace window settled on each restart
    manager_restarts: int = 0
    journal_snapshots: int = 0
    workers_rejoined: int = 0
    replicas_readopted: int = 0
    sessions_restored: int = 0
    #: category string of the last ``recovery_complete`` event
    #: (``regenerated=N lost=N workers=J/E``), "" before any recovery
    last_recovery: str = ""
    outputs_resumed: int = 0
    #: elastic membership: graceful drains ordered and completed, bytes
    #: migrated off draining workers, drains that left sole-holder
    #: objects stranded, and autoscaler decisions by direction
    drains_started: int = 0
    drains_completed: int = 0
    drain_bytes_migrated: int = 0
    drains_stranded: int = 0
    autoscale_up: int = 0
    autoscale_down: int = 0

    @property
    def faults_injected(self) -> int:
        return sum(self.faults_by_category.values())

    @property
    def workers_connected(self) -> int:
        return sum(1 for w in self.workers.values() if w.connected)


def replay_status(events: list[Event], runtime: str = "unknown") -> LogStatus:
    """Fold an event sequence into the state at its horizon."""
    st = LogStatus(runtime=runtime)
    open_tasks: set[str] = set()
    for e in events:
        st.horizon = max(st.horizon, e.time)
        w = st.workers.get(e.worker) if e.worker else None
        if e.kind == "worker_join":
            st.workers[e.worker] = _WorkerReplay()
        elif e.kind == "worker_leave" and w is not None:
            w.connected = False
            open_tasks -= w.running
            w.running = set()
        elif e.kind == "task_start":
            if e.category == "library":
                st.libraries_ready.setdefault(e.category, 0)
            open_tasks.add(e.task)
            if w is not None:
                w.running.add(e.task)
        elif e.kind == "task_end":
            if e.task in open_tasks:
                open_tasks.discard(e.task)
                st.tasks_done += 1
            if w is not None:
                w.running.discard(e.task)
            if e.category == "library" and e.category in st.libraries_ready:
                pass  # library teardown; ready count handled below
        elif e.kind == "transfer_start":
            st.transfers_open += 1
        elif e.kind == "transfer_end":
            st.transfers_open = max(0, st.transfers_open - 1)
            st.transfers_done += 1
            if e.category is not None:
                kind = (
                    "retrieve" if e.category == "@retrieve"
                    else source_kind(e.category)
                )
                st.bytes_by_kind[kind] = st.bytes_by_kind.get(kind, 0) + e.size
        elif e.kind == "fetch_retried":
            # the asked holder will not serve: this closes its transfer_start
            st.transfers_open = max(0, st.transfers_open - 1)
        elif e.kind == "stage_start":
            st.stages_open += 1
        elif e.kind == "stage_end":
            st.stages_open = max(0, st.stages_open - 1)
            st.stages_done += 1
        elif e.kind == "file_cached" and w is not None:
            w.cached_objects += 1
            w.cached_bytes += e.size
        elif e.kind == "file_deleted" and w is not None:
            w.cached_objects = max(0, w.cached_objects - 1)
            w.cached_bytes = max(0, w.cached_bytes - e.size)
        elif e.kind == "library_ready" and e.category is not None:
            st.libraries_ready[e.category] = (
                st.libraries_ready.get(e.category, 0) + 1
            )
        elif e.kind == "fault_injected":
            st.faults_by_category[e.category or "unknown"] = (
                st.faults_by_category.get(e.category or "unknown", 0) + 1
            )
        elif e.kind == "transfer_failed":
            st.transfers_failed += 1
        elif e.kind == "task_requeued":
            st.tasks_requeued += 1
        elif e.kind == "file_regenerated":
            st.files_regenerated += 1
        elif e.kind == "worker_blocklist":
            st.workers_blocklisted += 1
        elif e.kind == "client_attach":
            st.clients_attached += 1
        elif e.kind == "client_rejected":
            st.clients_rejected += 1
        elif e.kind == "cache_shared":
            st.cache_shared += 1
        elif e.kind == "memo_hit":
            st.memo_hits += 1
            st.memo_bytes_saved += e.size
        elif e.kind == "memo_miss":
            st.memo_misses += 1
        elif e.kind == "memo_invalidated":
            st.memo_invalidated += 1
        elif e.kind == "manager_restart":
            st.manager_restarts += 1
        elif e.kind == "journal_snapshot":
            st.journal_snapshots += 1
        elif e.kind == "worker_rejoined":
            st.workers_rejoined += 1
        elif e.kind == "replica_readopted":
            st.replicas_readopted += 1
        elif e.kind == "session_restored":
            st.sessions_restored += 1
        elif e.kind == "recovery_complete":
            st.last_recovery = e.category or ""
            st.outputs_resumed += e.size
        elif e.kind == "worker_drain":
            st.drains_started += 1
        elif e.kind == "worker_drained":
            st.drains_completed += 1
            st.drain_bytes_migrated += e.size
            if e.category == "stranded":
                st.drains_stranded += 1
        elif e.kind == "autoscale":
            if e.category == "up":
                st.autoscale_up += e.size
            else:
                st.autoscale_down += e.size
        elif e.kind == "workflow_done":
            st.workflow_done = True
    st.tasks_running = len(open_tasks)
    return st


def format_log_status(st: LogStatus, max_workers: int = 20) -> str:
    """Render the replayed state as an aligned text table."""
    lines = [
        f"runtime {st.runtime}  t={st.horizon:.1f}s"
        + ("  [workflow done]" if st.workflow_done else ""),
        f"tasks: {st.tasks_running} running, {st.tasks_done} done",
        f"transfers: {st.transfers_open} open, {st.transfers_done} done; "
        f"stages: {st.stages_open} open, {st.stages_done} done",
    ]
    if st.bytes_by_kind:
        moved = "  ".join(
            f"{kind}={nbytes / 1e6:.1f}MB"
            for kind, nbytes in sorted(st.bytes_by_kind.items())
        )
        lines.append(f"bytes moved: {moved}")
    if st.libraries_ready:
        ready = "  ".join(
            f"{name}:{n}" for name, n in sorted(st.libraries_ready.items())
        )
        lines.append(f"libraries ready: {ready}")
    if st.faults_injected or st.transfers_failed or st.tasks_requeued:
        cats = "  ".join(
            f"{cat}:{n}" for cat, n in sorted(st.faults_by_category.items())
        )
        lines.append(
            f"faults injected: {st.faults_injected}" + (f" ({cats})" if cats else "")
        )
        lines.append(
            f"recovery: {st.transfers_failed} failed transfers, "
            f"{st.tasks_requeued} requeues, {st.files_regenerated} regenerations, "
            f"{st.workers_blocklisted} blocklisted"
        )
    if st.clients_attached or st.clients_rejected or st.cache_shared:
        lines.append(
            f"clients: {st.clients_attached} attached, "
            f"{st.clients_rejected} rejected; "
            f"{st.cache_shared} cross-tenant cache hits"
        )
    if st.memo_hits or st.memo_misses or st.memo_invalidated:
        lines.append(
            f"memo: {st.memo_hits} hits, {st.memo_misses} misses, "
            f"{st.memo_invalidated} invalidated; "
            f"{st.memo_bytes_saved / 1e6:.1f}MB saved"
        )
    if st.manager_restarts:
        lines.append(
            f"recovery: {st.manager_restarts} manager restart(s), "
            f"{st.workers_rejoined} workers rejoined, "
            f"{st.replicas_readopted} replicas re-adopted, "
            f"{st.sessions_restored} sessions restored, "
            f"{st.outputs_resumed} outputs resumed"
            + (f" ({st.last_recovery})" if st.last_recovery else "")
        )
    if st.drains_started or st.autoscale_up or st.autoscale_down:
        lines.append(
            f"elastic: {st.drains_started} drains "
            f"({st.drains_completed} completed, {st.drains_stranded} stranded), "
            f"{st.drain_bytes_migrated / 1e6:.1f}MB migrated; "
            f"autoscale +{st.autoscale_up}/-{st.autoscale_down}"
        )
    lines.append(f"workers connected: {st.workers_connected}")
    shown = 0
    for wid in sorted(st.workers):
        w = st.workers[wid]
        if not w.connected:
            continue
        if shown >= max_workers:
            lines.append(f"  ... and {st.workers_connected - shown} more")
            break
        shown += 1
        lines.append(
            f"  {wid:>8s} tasks {len(w.running):3d}  "
            f"cache {w.cached_objects:4d} objs {w.cached_bytes / 1e6:9.1f} MB"
        )
    return "\n".join(lines)


def format_tenant_table(metrics: dict) -> str:
    """Per-tenant rows from ``tenant.<name>.<field>`` accounting metrics.

    Returns "" when the snapshot carries no tenant accounting (a
    single-tenant run never creates these instruments).
    """
    tenants: dict[str, dict[str, float]] = {}
    for name, inst in metrics.items():
        if not name.startswith("tenant."):
            continue
        _, tenant, fieldname = name.split(".", 2)
        tenants.setdefault(tenant, {})[fieldname] = inst.get("value", 0)
    if not tenants:
        return ""
    lines = [
        "tenants:",
        f"  {'tenant':<12s} {'queued':>7s} {'running':>8s} {'done':>6s} "
        f"{'failed':>7s} {'cached':>10s} {'hits':>5s} {'headroom':>9s}",
    ]
    for tenant in sorted(tenants):
        row = tenants[tenant]
        headroom = row.get("quota_headroom", -1)
        lines.append(
            f"  {tenant:<12s} {int(row.get('tasks_queued', 0)):>7d} "
            f"{int(row.get('tasks_running', 0)):>8d} "
            f"{int(row.get('tasks_done', 0)):>6d} "
            f"{int(row.get('tasks_failed', 0)):>7d} "
            f"{row.get('bytes_declared', 0) / 1e6:>8.1f}MB "
            f"{int(row.get('cache_hits', 0)):>5d} "
            + (f"{int(headroom):>9d}" if headroom >= 0 else f"{'∞':>9s}")
        )
    return "\n".join(lines)


def format_queue_line(metrics: dict) -> str:
    """Why the queued tasks are queued: no capacity, or no inputs yet.

    ``queue.ready_depth`` counts every READY task; ``queue.parked`` is
    the part of it whose inputs are still being produced — adding
    workers drains the rest, never those.  "" without a ready gauge.
    """
    depth = metrics.get("queue.ready_depth")
    if depth is None:
        return ""
    ready = int(depth.get("value", 0))
    parked = int(metrics.get("queue.parked", {}).get("value", 0))
    return (
        f"queue: {ready} ready = {ready - parked} waiting for capacity + "
        f"{parked} parked on inputs not produced yet"
    )


def format_disk_lines(metrics: dict) -> list[str]:
    """What the loop is spending on disk, one line per process kind.

    A manager snapshot carries the journal counters: records ÷ fsyncs
    is the group-commit factor (1.0 means every record paid its own
    fsync).  A worker snapshot carries ``cache.index_writes``: only
    worker-lifetime objects may cost one.
    """

    def value(name: str) -> int:
        return int(metrics.get(name, {}).get("value", 0))

    lines = []
    fsyncs = value("journal.fsyncs")
    if fsyncs:
        records = value("journal.records")
        lines.append(
            f"journal: {records} records in {fsyncs} fsyncs "
            f"({records / fsyncs:.1f} per sync)"
        )
    if "cache.index_writes" in metrics:
        lines.append(
            f"cache index: {value('cache.index_writes')} writes "
            f"({value('cache.objects')} objects cached)"
        )
    return lines


def _format_metrics(path: str) -> str:
    try:
        with open(path) as f:
            payload = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        return f"(metrics unreadable: {exc})"
    lines = []
    queue_line = format_queue_line(payload.get("metrics", {}))
    if queue_line:
        lines.append(queue_line)
    lines.extend(format_disk_lines(payload.get("metrics", {})))
    tenant_table = format_tenant_table(payload.get("metrics", {}))
    if tenant_table:
        lines.append(tenant_table)
    lines.append("metrics:")
    for name, inst in sorted(payload.get("metrics", {}).items()):
        if name.startswith("tenant."):
            continue  # rendered as the tenant table above
        if inst.get("type") == "histogram":
            if not inst.get("count"):
                continue
            lines.append(
                f"  {name:<36s} n={inst['count']:<8d} "
                f"mean={inst['mean']:.4g} p90={inst['p90']:.4g} "
                f"max={inst['max']:.4g}"
            )
        elif inst.get("type") == "gauge":
            lines.append(
                f"  {name:<36s} {inst['value']:.6g} (peak {inst['max']:.6g})"
            )
        else:
            lines.append(f"  {name:<36s} {inst.get('value', 0):.6g}")
    return "\n".join(lines)


def _render_once(args) -> int:
    header, events = read_transactions(args.log)
    st = replay_status(events, runtime=header.get("runtime", "unknown"))
    print(format_log_status(st, max_workers=args.workers))
    if args.metrics:
        print(_format_metrics(args.metrics))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-status",
        description="Render a status table from a transaction log "
        "(live while a manager writes it, or after the fact).",
    )
    parser.add_argument("log", help="path to a transaction log (JSONL)")
    parser.add_argument(
        "-f", "--follow", action="store_true",
        help="redraw every --interval seconds until workflow_done or ^C",
    )
    parser.add_argument(
        "--interval", type=float, default=2.0, help="refresh period for --follow"
    )
    parser.add_argument(
        "--metrics", help="also render a metrics snapshot JSON (see SnapshotDumper)"
    )
    parser.add_argument(
        "--workers", type=int, default=20, help="max worker rows to show"
    )
    args = parser.parse_args(argv)
    try:
        if not args.follow:
            return _render_once(args)
        while True:
            print("\033[2J\033[H", end="")  # clear screen, home cursor
            _render_once(args)
            header, events = read_transactions(args.log)
            if any(e.kind == "workflow_done" for e in events):
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 130
    except (OSError, ValueError) as exc:
        print(f"repro-status: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
