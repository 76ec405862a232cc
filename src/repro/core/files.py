"""File declarations: the data half of a TaskVine workflow.

All data accessed or produced by a workflow must be explicitly declared
(paper §2.3).  Each named data object is a :class:`File`, whether it is
a single file, a container image, or a directory tree.  Files are
immutable once created: replicas may exist on many workers at once with
no consistency protocol.

Subtypes mirror the paper:

* :class:`LocalFile` — a path in the shared filesystem.
* :class:`BufferFile` — a small literal byte string from the
  application's memory.
* :class:`URLFile` — a remote object the worker downloads on demand.
* :class:`TempFile` — an ephemeral file that exists only inside the
  cluster and is never materialized outside it.
* :class:`MiniTaskFile` — a file produced on demand by executing a
  *mini task* at the worker (e.g. ``declare_untar``).

Cache lifetimes (:class:`CacheLevel`) control how long a worker may keep
an object: ``TASK`` files die with their task, ``WORKFLOW`` files (the
default) die with the workflow, and ``WORKER`` files persist across
workflows and therefore require content-addressable names
(:mod:`repro.core.naming`).
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.task import Task

__all__ = [
    "CacheLevel",
    "File",
    "LocalFile",
    "BufferFile",
    "URLFile",
    "TempFile",
    "MiniTaskFile",
    "FileRegistry",
]


class CacheLevel(enum.IntEnum):
    """Expected lifetime of a file, hinted by the application (paper §2.3).

    Ordering is meaningful: a larger level means a longer lifetime, and
    eviction/garbage-collection policies compare levels directly.
    """

    #: Consumed only by the task it is attached to; discarded immediately.
    TASK = 0
    #: Reused during the current workflow run; deleted at its conclusion.
    WORKFLOW = 1
    #: Kept by the worker for future workflows while space allows.
    WORKER = 2

    @classmethod
    def parse(cls, value: "CacheLevel | str | int") -> "CacheLevel":
        """Accept the enum itself, its name (any case), or its int value."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls[value.upper()]
        return cls(value)


_file_ids = itertools.count(1)


class File:
    """A named, immutable data object in a workflow.

    Instances are handles: declaring a file does not imply it exists at
    any worker yet (URL and temp files are materialized lazily, after
    which the worker sends a ``cache-update``).  The manager assigns
    each file a unique *cache name* (see :mod:`repro.core.naming`) which
    is the key used in worker caches and the replica table.
    """

    #: short tag used in cache-name prefixes and traces
    kind = "file"
    #: shared-storage mode (paper Fig. 13a), set per file by the
    #: simulator's ``declare_output``: the producing task completes only
    #: once this output came home to the manager, which serves it from
    #: then on; the worker copy is dropped unless ``keep_at_worker``
    bring_back = False
    keep_at_worker = False
    #: id of the task that produces this file, stamped at its submit:
    #: the lineage a lost replica is regenerated through
    producer_task_id: Optional[str] = None

    def __init__(self, cache: "CacheLevel | str" = CacheLevel.WORKFLOW) -> None:
        self.file_id: str = f"f{next(_file_ids)}"
        self.cache_level = CacheLevel.parse(cache)
        #: assigned by the manager's naming policy; None until declared
        self.cache_name: Optional[str] = None
        #: size in bytes, once known (declared, measured, or reported)
        self.size: Optional[int] = None
        #: cache names this file's materialization depends on (mini tasks)
        self.dependencies: tuple[str, ...] = ()

    def source_description(self) -> str:
        """Human-readable provenance used in logs and error messages."""
        return self.kind

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} {self.file_id} "
            f"cache={self.cache_level.name} name={self.cache_name}>"
        )


class LocalFile(File):
    """A file or directory in the shared filesystem of the cluster."""

    kind = "local"

    def __init__(self, path: str, cache: "CacheLevel | str" = CacheLevel.WORKFLOW):
        super().__init__(cache)
        self.path = path

    def source_description(self) -> str:
        return f"local:{self.path}"


class BufferFile(File):
    """A literal byte string held in the manager's memory.

    Typically small (per-task query strings, configuration snippets);
    the manager pushes the bytes directly to workers.
    """

    kind = "buffer"

    def __init__(self, data: bytes, cache: "CacheLevel | str" = CacheLevel.WORKFLOW):
        if isinstance(data, str):
            data = data.encode()
        super().__init__(cache)
        self.data = bytes(data)
        self.size = len(self.data)

    def source_description(self) -> str:
        return f"buffer[{self.size}B]"


class URLFile(File):
    """A remote object fetched by the worker on demand.

    The manager never needs the content; it derives a cache name from
    the response headers (checksum if offered, else URL+ETag+mtime) so
    that stale data can never be served under an old name (paper §3.2).
    """

    kind = "url"

    def __init__(self, url: str, cache: "CacheLevel | str" = CacheLevel.WORKFLOW):
        super().__init__(cache)
        self.url = url

    def source_description(self) -> str:
        return f"url:{self.url}"


class TempFile(File):
    """An ephemeral file produced by a task and kept only in-cluster.

    Temp files never travel back to the manager unless explicitly
    fetched; downstream tasks consume them from worker storage,
    which is what removes the manager round-trip in the TopEFT
    experiment (paper Fig. 13).
    """

    kind = "temp"


class MiniTaskFile(File):
    """A file materialized on demand by running a mini task (paper §2.4/§3.1).

    The wrapped task's single declared output becomes this file's
    content.  Its cache name is the Merkle hash of the task
    specification, so two identical transformations of identical inputs
    share one cached object.
    """

    kind = "minitask"
    #: virtual seconds one materialization takes (simulator only)
    stage_time = 0.0

    def __init__(self, mini_task: "Task", cache: "CacheLevel | str" = CacheLevel.WORKFLOW):
        super().__init__(cache)
        self.mini_task = mini_task

    def source_description(self) -> str:
        return f"minitask:{self.mini_task.command!r}"


class FileRegistry:
    """Manager-side index of every declared file.

    Maps both declaration ids and cache names to :class:`File` handles,
    and answers lifetime queries for garbage collection.  Registering
    two files that resolve to the same cache name is allowed (identical
    content declared twice) and returns the canonical first handle.
    """

    def __init__(self) -> None:
        self._by_id: dict[str, File] = {}
        self._by_name: dict[str, File] = {}

    def register(self, f: File) -> File:
        """Record ``f``; returns the canonical handle for its cache name."""
        if f.cache_name is None:
            raise ValueError(f"file {f.file_id} has no cache name yet")
        self._by_id[f.file_id] = f
        canonical = self._by_name.setdefault(f.cache_name, f)
        return canonical

    def by_id(self, file_id: str) -> File:
        """Look up a file by declaration id (KeyError if unknown)."""
        return self._by_id[file_id]

    def by_name(self, cache_name: str) -> File:
        """Look up the canonical file for a cache name (KeyError if unknown)."""
        return self._by_name[cache_name]

    def __contains__(self, cache_name: str) -> bool:
        return cache_name in self._by_name

    def __len__(self) -> int:
        return len(self._by_name)

    def in_declaration_order(self, names: "set[str] | list[str]") -> list[str]:
        """``names`` ordered by when their canonical file was declared.

        Recovery paths that iterate set-valued queries (a departed
        worker's lost replicas, say) would otherwise walk cache names in
        hash order of their run-scoped nonces, making two identically
        seeded runs recover — and log — in different orders.
        """
        index = {name: i for i, name in enumerate(self._by_name)}
        return sorted(names, key=lambda n: index.get(n, len(index)))

    def names_at_level(self, *levels: CacheLevel) -> set[str]:
        """All cache names whose canonical file has one of ``levels``."""
        wanted = set(levels)
        return {
            name for name, f in self._by_name.items() if f.cache_level in wanted
        }

    def collectable_names(self) -> set[str]:
        """Cache names safe to delete at workflow end.

        ``WORKER``-lifetime files are excluded: they persist for future
        workflows (paper §3.2).
        """
        return self.names_at_level(CacheLevel.TASK, CacheLevel.WORKFLOW)
