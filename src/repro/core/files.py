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

from repro.core.transfer_table import (
    MANAGER_SOURCE,
    MINITASK_SOURCE,
    NO_SOURCE,
    url_source,
)

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
    "RetrievedFile",
    "LearnedFile",
    "FileRegistry",
    "shareable",
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


class File:
    """A named, immutable data object in a workflow.

    Instances are handles: declaring a file does not imply it exists at
    any worker yet (URL and temp files are materialized lazily, after
    which the worker reports them: a ``cache-update`` for a transfer,
    the producer's ``task-done`` for a temp).  The manager assigns
    each file a unique *cache name* (see :mod:`repro.core.naming`) which
    is the key used in worker caches and the replica table.

    The canonical handle of a name is also the manager's one record of
    it: its size, its producer, its place in declaration order, the
    source that serves it and the tenants that declared it all live
    here, and no table repeats them.  A record is a fixed set of slots
    (no instance dict) and has no id of its own: messages name a file
    by its cache name and :meth:`source_description`.  A field only
    some kinds take is a slot of those kinds, or a class default here
    that the kind setting it overrides.
    """

    __slots__ = (
        "cache_level",
        "cache_name",
        "size",
        "producer_task_id",
        "rank",
        "source",
        "owner",
    )

    #: short tag used in cache-name prefixes and traces
    kind = "file"
    #: the source key that serves a file of this kind when no worker
    #: holds it (:mod:`repro.core.transfer_table`), copied into
    #: ``source`` at construction.  A plain ``File`` (the simulator's
    #: stand-in for content) names its source at declaration
    kind_source: Optional[str] = None
    #: shared-storage mode (paper Fig. 13a), which only a
    #: :class:`RetrievedFile` sets: the producing task completes only
    #: once this output came home to the manager, which serves it from
    #: then on; the worker copy is dropped unless ``keep_at_worker``
    bring_back = False
    keep_at_worker = False

    def __init__(self, cache: "CacheLevel | str" = CacheLevel.WORKFLOW) -> None:
        self.cache_level = CacheLevel.parse(cache)
        #: assigned by the manager's naming policy; None until declared
        self.cache_name: Optional[str] = None
        #: size in bytes, once known (declared, measured, or reported)
        self.size: Optional[int] = None
        #: id of the task that produces this file, stamped at its submit:
        #: the lineage a lost replica is regenerated through, and the
        #: tenant whose namespace the output joins
        self.producer_task_id: Optional[str] = None
        #: how many names a registry saw declared before this file's,
        #: stamped when it registers a name first: its place in
        #: declaration order
        self.rank: Optional[int] = None
        #: the source key that serves this name when no worker holds it:
        #: the kind's own, unless the plane moved it (an output that
        #: came home, a withdrawn source)
        self.source: Optional[str] = self.kind_source
        #: the tenant (its account's own string), or the set of tenants,
        #: that declared or adopted this name through a session; an
        #: output is in its producer's tenant's namespace without one
        self.owner: "str | set[str] | None" = None

    def source_description(self) -> str:
        """Human-readable provenance used in logs and error messages."""
        return self.kind

    def owned_by(self, tenant: str) -> bool:
        """Whether ``tenant`` declared or adopted this name."""
        owner = self.owner
        if owner is None:
            return False
        return owner == tenant if owner.__class__ is str else tenant in owner

    def add_owner(self, tenant: str) -> None:
        """Count ``tenant`` among the name's owners: its string for the
        first, a set once a second tenant declares the same content."""
        owner = self.owner
        if owner is None:
            self.owner = tenant
        elif owner.__class__ is not str:
            owner.add(tenant)
        elif owner != tenant:
            self.owner = {owner, tenant}

    def label(self) -> str:
        """How a message names this file: its provenance, and its cache
        name once it has one."""
        desc = self.source_description()
        return desc if self.cache_name is None else f"{desc} {self.cache_name}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} {self.source_description()} "
            f"cache={self.cache_level.name} name={self.cache_name}>"
        )


class RetrievedFile(File):
    """A task output brought home to the manager on completion: the
    simulator's shared-storage mode (paper Fig. 13a), the one kind that
    sets ``bring_back`` and ``keep_at_worker``.  Its kind stays
    ``file``, so journals and traces read as for a plain ``File``."""

    __slots__ = ("bring_back", "keep_at_worker")

    def __init__(
        self,
        cache: "CacheLevel | str" = CacheLevel.WORKFLOW,
        bring_back: bool = True,
        keep_at_worker: bool = False,
    ) -> None:
        super().__init__(cache)
        self.bring_back = bring_back
        self.keep_at_worker = keep_at_worker


class LocalFile(File):
    """A file or directory in the shared filesystem of the cluster."""

    __slots__ = ("path",)
    kind = "local"
    kind_source = MANAGER_SOURCE  # the manager reads the path

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

    __slots__ = ("data",)
    kind = "buffer"
    kind_source = MANAGER_SOURCE  # the manager holds the bytes

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

    __slots__ = ("url",)
    kind = "url"

    def __init__(self, url: str, cache: "CacheLevel | str" = CacheLevel.WORKFLOW):
        super().__init__(cache)
        self.url = url
        self.source = url_source(url)

    def source_description(self) -> str:
        return f"url:{self.url}"


class TempFile(File):
    """An ephemeral file produced by a task and kept only in-cluster.

    Temp files never travel back to the manager unless explicitly
    fetched; downstream tasks consume them from worker storage,
    which is what removes the manager round-trip in the TopEFT
    experiment (paper Fig. 13).
    """

    __slots__ = ()
    kind = "temp"
    kind_source = NO_SOURCE  # exists only at workers, once produced


class MiniTaskFile(File):
    """A file materialized on demand by running a mini task (paper §2.4/§3.1).

    The wrapped task's single declared output becomes this file's
    content.  Its cache name is the Merkle hash of the task
    specification, so two identical transformations of identical inputs
    share one cached object.
    """

    __slots__ = ("mini_task", "dependencies", "stage_time")
    kind = "minitask"
    kind_source = MINITASK_SOURCE

    def __init__(self, mini_task: "Task", cache: "CacheLevel | str" = CacheLevel.WORKFLOW):
        super().__init__(cache)
        self.mini_task = mini_task
        #: cache names this file's materialization depends on, set when
        #: it is named
        self.dependencies: tuple[str, ...] = ()
        #: virtual seconds one materialization takes (simulator only)
        self.stage_time = 0.0

    def source_description(self) -> str:
        return f"minitask:{self.mini_task.command!r}"


def shareable(cache_name: str) -> bool:
    """Whether two files may share ``cache_name``: a content- or
    spec-derived name may repeat, a run-scoped random one (its second
    segment is ``rnd``: ``temp-rnd-<nonce>-<bits>``) may not."""
    return not cache_name.partition("-")[2].startswith("rnd")


class LearnedFile(File):
    """The record of a name the manager learned without a declaration:
    a replica a joining worker announced, an output a journal recorded.

    Nothing but a worker serves it, nothing collects it at workflow end,
    and it has no place in declaration order; a later declaration of
    the name takes its place in the registry.
    """

    __slots__ = ()
    kind = "learned"
    kind_source = NO_SOURCE

    def __init__(self, cache_name: str, size: int) -> None:
        super().__init__(CacheLevel.WORKER)
        self.cache_name = cache_name
        self.size = size


class _Sources:
    """The registry's names to the sources that serve them, read like a
    mapping (``get`` only): what transfer planning asks of each input."""

    __slots__ = ("_by_name",)

    def __init__(self, by_name: dict[str, File]) -> None:
        self._by_name = by_name

    def get(self, cache_name: str, default: Optional[str] = None) -> Optional[str]:
        f = self._by_name.get(cache_name)
        return default if f is None else f.source


class FileRegistry:
    """Manager-side index of every declared file: one record per name.

    Maps cache names to their canonical :class:`File` handles, and
    answers lifetime queries for garbage collection.  Registering two
    files that resolve to the same content- or spec-derived name is
    allowed (identical content declared twice) and returns the canonical
    first handle; a second file under a run-scoped random (``-rnd-``)
    name is a collision, and is refused.
    """

    def __init__(self) -> None:
        self._by_name: dict[str, File] = {}
        self._ranks = itertools.count()
        #: each name's source, read like a mapping
        self.sources = _Sources(self._by_name)

    def register(self, f: File) -> File:
        """Record ``f``; returns the canonical handle for its cache name."""
        name = f.cache_name
        if name is None:
            raise ValueError(f"{f.label()} has no cache name yet")
        known = self._by_name.get(name)
        if known is f:
            return f
        if known is not None and known.__class__ is not LearnedFile:
            if not shareable(name):
                raise RuntimeError(f"cache name collision within run: {name}")
            return known
        if known is not None:
            # a declaration takes the place of what was learned: the
            # name keeps the registry's own string, and the tenants that
            # adopted or restored it stay its owners
            f.cache_name = known.cache_name
            owner = known.owner
            if owner is not None:
                for tenant in (owner,) if owner.__class__ is str else owner:
                    f.add_owner(tenant)
        self._by_name[f.cache_name] = f
        if f.__class__ is not LearnedFile:
            f.rank = next(self._ranks)
        return f

    def by_name(self, cache_name: str) -> File:
        """Look up the canonical file for a cache name (KeyError if unknown)."""
        return self._by_name[cache_name]

    def get(self, cache_name: str) -> Optional[File]:
        """The canonical file for a cache name, or None if undeclared;
        its ``cache_name`` is the registry's own string."""
        return self._by_name.get(cache_name)

    def own_name(self, cache_name: str) -> str:
        """The registry's own string for a declared name, else
        ``cache_name`` itself.

        A name decoded from a worker's report is a second copy of one
        the manager already holds; tables keyed by the registry's copy
        store each name once.
        """
        f = self._by_name.get(cache_name)
        return cache_name if f is None else f.cache_name

    def __contains__(self, cache_name: str) -> bool:
        return cache_name in self._by_name

    def __len__(self) -> int:
        return len(self._by_name)

    def in_declaration_order(self, names: "set[str] | list[str]") -> list[str]:
        """``names`` ordered by when their canonical file was declared.

        Recovery paths that iterate set-valued queries (a departed
        worker's lost replicas, say) would otherwise walk cache names in
        hash order of their run-scoped nonces, making two identically
        seeded runs recover — and log — in different orders.  Names the
        registry does not know come last, in the order given.
        """
        by_name, unknown = self._by_name, len(self._by_name)

        def rank(name: str) -> int:
            f = by_name.get(name)
            return unknown if f is None or f.rank is None else f.rank

        return sorted(names, key=rank)

    def names_at_level(self, *levels: CacheLevel) -> list[str]:
        """Every cache name whose canonical file has one of ``levels``,
        in declaration order."""
        wanted = set(levels)
        return [
            name for name, f in self._by_name.items() if f.cache_level in wanted
        ]

    def collectable_names(self) -> list[str]:
        """Cache names safe to delete at workflow end, in declaration order.

        ``WORKER``-lifetime files are excluded: they persist for future
        workflows (paper §3.2).
        """
        return self.names_at_level(CacheLevel.TASK, CacheLevel.WORKFLOW)
