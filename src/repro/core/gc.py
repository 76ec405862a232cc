"""Garbage collection and cache eviction policy.

The manager performs garbage collection (paper §2.2): ``TASK``-lifetime
files are deleted as soon as their consuming task completes, and
``TASK``/``WORKFLOW``-lifetime files are removed from every worker at
workflow end, so a future run choosing the same random names can never
observe stale data.  ``WORKER``-lifetime files persist while resources
allow; when a worker's disk fills, the manager selects victims with the
eviction planner below (least-valuable first: shortest declared
lifetime, then least recently used).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.core.files import CacheLevel

if TYPE_CHECKING:  # the worker imports this module for its cache entries
    from repro.core.files import FileRegistry
    from repro.core.replica_table import ReplicaTable

__all__ = ["CacheEntryInfo", "collect_workflow", "collect_task_inputs", "plan_eviction"]


@dataclass(frozen=True, slots=True)
class CacheEntryInfo:
    """What the eviction planner needs to know about one cached object."""

    cache_name: str
    size: int
    level: CacheLevel
    #: timestamp of the last task that consumed the object at this worker
    last_used: float


def collect_workflow(
    registry: FileRegistry, replicas: ReplicaTable
) -> dict[str, list[str]]:
    """Deletions to issue at workflow end: worker id → cache names, each
    worker's in declaration order.

    Includes every replica of every ``TASK``/``WORKFLOW``-lifetime file;
    ``WORKER``-lifetime files are never collected here.
    """
    deletions: dict[str, list[str]] = {}
    for name in registry.collectable_names():
        for worker_id in replicas.locate(name):
            deletions.setdefault(worker_id, []).append(name)
    return deletions


def collect_task_inputs(
    task_input_names: Iterable[str],
    registry: FileRegistry,
    still_needed: Mapping[str, int],
) -> set[str]:
    """Names deletable immediately after one task completes.

    A ``TASK``-lifetime input is discarded as soon as no other
    unfinished task references it (``still_needed`` maps cache name →
    count of remaining references).
    """
    deletable = set()
    for name in task_input_names:
        if name not in registry:
            continue
        if registry.by_name(name).cache_level != CacheLevel.TASK:
            continue
        if still_needed.get(name, 0) <= 0:
            deletable.add(name)
    return deletable


def plan_eviction(
    entries: Iterable[CacheEntryInfo],
    needed_bytes: int,
    pinned: frozenset[str] | set[str] = frozenset(),
) -> list[str]:
    """Choose cache objects to delete to free at least ``needed_bytes``.

    Victims are chosen least-valuable first: shortest declared lifetime,
    then least-recently-used, then largest (to minimize the number of
    deletions).  Objects in ``pinned`` (inputs of running or dispatched
    tasks) are never chosen.  Returns the chosen cache names in eviction
    order; the list may free less than requested if the cache simply
    does not contain enough evictable bytes.
    """
    if needed_bytes <= 0:
        return []
    candidates = sorted(
        (e for e in entries if e.cache_name not in pinned),
        key=lambda e: (e.level, e.last_used, -e.size),
    )
    victims: list[str] = []
    freed = 0
    for entry in candidates:
        if freed >= needed_bytes:
            break
        victims.append(entry.cache_name)
        freed += entry.size
    return victims
