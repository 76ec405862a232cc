"""Worker-side on-disk object cache.

Worker storage is organized as a flat cache of data objects, each with
a unique name assigned by the manager (paper §2.2, Fig. 4).  Objects
may be regular files or directory trees.  A small JSON index records
the ``WORKER``-lifetime objects — the only ones that survive a worker
restart and can serve future workflows — and is rewritten only when
that set changes.  Anything shorter-lived exists in memory alone, so
it costs no index write while it lives and is discarded on startup.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
from dataclasses import dataclass
from repro.core.files import CacheLevel
from repro.core.gc import CacheEntryInfo

__all__ = ["WorkerCache", "CacheEntry"]

_INDEX_NAME = "index.json"


@dataclass
class CacheEntry:
    """Metadata for one cached object."""

    cache_name: str
    size: int
    level: CacheLevel
    last_used: float
    is_dir: bool


def _tree_size(path: str) -> int:
    """Total bytes of a file or directory tree."""
    if not os.path.isdir(path):
        return os.path.getsize(path)
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            fp = os.path.join(root, name)
            if not os.path.islink(fp):
                total += os.path.getsize(fp)
    return total


class WorkerCache:
    """A directory of cache objects plus a persisted metadata index.

    With a ``metrics`` registry the cache keeps ``cache.objects`` and
    ``cache.bytes`` gauges current, so a metrics snapshot shows cache
    occupancy (and its peak) without walking the disk, and counts every
    rewrite of the index in ``cache.index_writes``.
    """

    def __init__(self, root: str, metrics=None) -> None:
        self.root = os.path.abspath(root)
        self.objects_dir = os.path.join(self.root, "objects")
        self.staging_dir = os.path.join(self.root, "staging")
        os.makedirs(self.objects_dir, exist_ok=True)
        os.makedirs(self.staging_dir, exist_ok=True)
        self._entries: dict[str, CacheEntry] = {}
        #: sum of every entry's size, kept current by each mutation
        self._bytes = 0
        # the worker mutates the cache from its control-message reader
        # thread (unlink, put) and from per-task execution threads
        # (output harvest) concurrently
        self._lock = threading.RLock()
        self._staging_seq = 0
        self._g_objects = metrics.gauge("cache.objects") if metrics else None
        self._g_bytes = metrics.gauge("cache.bytes") if metrics else None
        self._m_index_writes = (
            metrics.counter("cache.index_writes") if metrics else None
        )
        self._load_index()

    def _sync_metrics(self) -> None:
        if self._g_objects is not None:
            self._g_objects.set(len(self._entries))
            self._g_bytes.set(self._bytes)

    # -- index persistence -----------------------------------------------

    def _index_path(self) -> str:
        return os.path.join(self.root, _INDEX_NAME)

    def _load_index(self) -> None:
        """Recover worker-lifetime objects; purge everything else.

        Only ``WORKER``-lifetime entries whose object still exists are
        kept — anything shorter-lived belonged to a finished (or dead)
        workflow and must not pollute future runs.
        """
        index: dict = {}
        try:
            with open(self._index_path()) as f:
                index = json.load(f)
        except (OSError, json.JSONDecodeError):
            index = {}
        for name in os.listdir(self.objects_dir):
            path = os.path.join(self.objects_dir, name)
            meta = index.get(name)
            if meta is not None and meta.get("level") == int(CacheLevel.WORKER):
                entry = self._entries[name] = CacheEntry(
                    cache_name=name,
                    size=int(meta["size"]),
                    level=CacheLevel.WORKER,
                    last_used=float(meta.get("last_used", 0.0)),
                    is_dir=os.path.isdir(path),
                )
                self._bytes += entry.size
            else:
                self._delete_path(path)
        shutil.rmtree(self.staging_dir, ignore_errors=True)
        os.makedirs(self.staging_dir, exist_ok=True)
        self._save_index()
        self._sync_metrics()

    def _save_index(self) -> None:
        """Persist the restart-surviving set: exactly what
        :meth:`_load_index` keeps.  Callers write only when that set
        changed, so shorter-lived objects never touch the index."""
        with self._lock:
            data = {
                name: {
                    "size": e.size,
                    "level": int(e.level),
                    "last_used": e.last_used,
                }
                for name, e in self._entries.items()
                if e.level == CacheLevel.WORKER
            }
            tmp = self._index_path() + ".tmp"
            with open(tmp, "w") as f:
                json.dump(data, f)
            os.replace(tmp, self._index_path())
            if self._m_index_writes is not None:
                self._m_index_writes.inc()

    # -- queries ------------------------------------------------------

    def path_of(self, cache_name: str) -> str:
        """Filesystem path where the object lives (whether or not present)."""
        if "/" in cache_name or cache_name in (".", ".."):
            raise ValueError(f"illegal cache name {cache_name!r}")
        return os.path.join(self.objects_dir, cache_name)

    def has(self, cache_name: str) -> bool:
        """True if the object is present."""
        return cache_name in self._entries

    def entry(self, cache_name: str) -> CacheEntry:
        """Metadata for one object (KeyError if absent)."""
        return self._entries[cache_name]

    def entries(self) -> list[CacheEntry]:
        """Snapshot of all entries."""
        return list(self._entries.values())

    def eviction_view(self) -> list[CacheEntryInfo]:
        """Entries in the shape the shared eviction planner expects."""
        return [
            CacheEntryInfo(e.cache_name, e.size, e.level, e.last_used)
            for e in self._entries.values()
        ]

    def total_bytes(self) -> int:
        """Bytes currently cached."""
        return self._bytes

    def names(self) -> set[str]:
        """All cached object names."""
        return set(self._entries)

    # -- mutation ---------------------------------------------------------

    def staging_path(self, hint: str) -> str:
        """A fresh path in the staging area for an in-progress download."""
        with self._lock:
            # a process-unique suffix keeps concurrent downloads of the
            # same object from colliding on one in-progress path
            self._staging_seq += 1
            base = os.path.join(
                self.staging_dir, f"{hint.replace('/', '_')}.{self._staging_seq}"
            )
            path, n = base, 0
            while os.path.exists(path):
                n += 1
                path = f"{base}.{n}"
            return path

    def insert_from(
        self, src_path: str, cache_name: str, level: CacheLevel, now: float = 0.0
    ) -> CacheEntry:
        """Move a staged file/directory into the cache under ``cache_name``.

        The source must be on the same filesystem (the staging area
        guarantees this).  Idempotent if the object already exists.
        """
        with self._lock:
            if self.has(cache_name):
                self._delete_path(src_path)
                return self._entries[cache_name]
            dst = self.path_of(cache_name)
            os.replace(src_path, dst) if not os.path.isdir(src_path) else shutil.move(
                src_path, dst
            )
            entry = CacheEntry(
                cache_name=cache_name,
                size=_tree_size(dst),
                level=level,
                last_used=now,
                is_dir=os.path.isdir(dst),
            )
            self._entries[cache_name] = entry
            self._bytes += entry.size
            if level == CacheLevel.WORKER:
                self._save_index()
            self._sync_metrics()
            return entry

    def insert_bytes(
        self, data: bytes, cache_name: str, level: CacheLevel, now: float = 0.0
    ) -> CacheEntry:
        """Write literal bytes into the cache (buffer files)."""
        staged = self.staging_path(cache_name)
        with open(staged, "wb") as f:
            f.write(data)
        return self.insert_from(staged, cache_name, level, now)

    def touch(self, cache_name: str, now: float) -> None:
        """Record a use for LRU accounting."""
        e = self._entries.get(cache_name)
        if e is not None:
            e.last_used = now

    def remove(self, cache_name: str) -> bool:
        """Delete an object; returns False if it was absent."""
        with self._lock:
            entry = self._entries.pop(cache_name, None)
            if entry is None:
                return False
            self._delete_path(self.path_of(cache_name))
            self._bytes -= entry.size
            if entry.level == CacheLevel.WORKER:
                self._save_index()
            self._sync_metrics()
            return True

    @staticmethod
    def _delete_path(path: str) -> None:
        if os.path.isdir(path) and not os.path.islink(path):
            shutil.rmtree(path, ignore_errors=True)
        elif os.path.lexists(path):
            os.unlink(path)
