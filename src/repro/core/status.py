"""Manager status reporting (the ``vine_status`` view).

A read-only snapshot of a running manager — tasks by state, connected
workers with their allocation and cache footprint, in-flight transfers,
and library deployments — suitable for printing, logging, or driving a
dashboard.  Works against both the real :class:`~repro.core.manager.Manager`
and the simulator's :class:`~repro.sim.simmanager.SimManager` since it
only touches the shared policy-state objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.task import TaskState

__all__ = ["WorkerStatus", "ManagerStatus", "manager_status", "format_status"]


@dataclass
class WorkerStatus:
    """One connected worker's load summary."""

    worker_id: str
    cores_total: float
    cores_allocated: float
    running_tasks: int
    cached_objects: int
    cached_bytes: int


@dataclass
class ManagerStatus:
    """A point-in-time snapshot of a manager's world view."""

    tasks_by_state: dict[str, int] = field(default_factory=dict)
    workers: list[WorkerStatus] = field(default_factory=list)
    files_tracked: int = 0
    replicas_total: int = 0
    transfers_in_flight: int = 0
    libraries: dict[str, int] = field(default_factory=dict)

    @property
    def workers_connected(self) -> int:
        return len(self.workers)

    @property
    def tasks_total(self) -> int:
        return sum(self.tasks_by_state.values())


def _worker_rows(manager) -> list[WorkerStatus]:
    # one code path for both runtimes: everything needed lives in the
    # shared ControlPlane (its workers are the connected ones; their
    # pools, the replica table) — no duck-typing on runtime internals
    control = manager.control
    rows = []
    for worker_id, state in sorted(control.workers.items()):
        rows.append(
            WorkerStatus(
                worker_id=worker_id,
                cores_total=state.pool.capacity.cores,
                cores_allocated=state.pool.allocated.cores,
                running_tasks=len(state.running),
                cached_objects=len(control.replicas.holdings(worker_id)),
                cached_bytes=control.replicas.bytes_at(worker_id),
            )
        )
    return rows


def manager_status(manager) -> ManagerStatus:
    """Build a snapshot from a real or simulated manager."""
    by_state: dict[str, int] = {}
    for task in manager.tasks.values():
        by_state[task.state.value] = by_state.get(task.state.value, 0) + 1
    libraries = {}
    for name, lib in getattr(manager, "libraries", {}).items():
        states = getattr(lib, "state", None) or getattr(lib, "deployments", {})
        libraries[name] = sum(1 for s in states.values() if s == "ready")
    return ManagerStatus(
        tasks_by_state=by_state,
        workers=_worker_rows(manager),
        files_tracked=len(manager.registry),
        replicas_total=manager.replicas.total_replicas(),
        transfers_in_flight=len(manager.transfers),
        libraries=libraries,
    )


def format_status(status: ManagerStatus) -> str:
    """Render a snapshot as an aligned text report."""
    lines = []
    counts = " ".join(
        f"{state}={n}" for state, n in sorted(status.tasks_by_state.items())
    ) or "none"
    lines.append(
        f"tasks: {status.tasks_total} ({counts})"
    )
    lines.append(
        f"files: {status.files_tracked} tracked, "
        f"{status.replicas_total} replicas, "
        f"{status.transfers_in_flight} transfers in flight"
    )
    if status.libraries:
        deployed = " ".join(f"{k}:{v}" for k, v in sorted(status.libraries.items()))
        lines.append(f"libraries ready: {deployed}")
    lines.append(f"workers: {status.workers_connected}")
    for w in status.workers:
        lines.append(
            f"  {w.worker_id:>8s} cores {w.cores_allocated:g}/{w.cores_total:g} "
            f"tasks {w.running_tasks} cache {w.cached_objects} objs "
            f"{w.cached_bytes / 1e6:.1f} MB"
        )
    return "\n".join(lines)


# Convenience: completed-state names used by callers filtering snapshots.
TERMINAL_STATE_NAMES = frozenset(
    s.value for s in (TaskState.DONE, TaskState.FAILED, TaskState.CANCELLED)
)
