"""File Replica Table: the manager's unified view of cluster storage.

Files are located at workers through this table (paper §3.3): for every
cache name it records which workers hold a replica and how large the
object is.  The table is updated from worker ``cache-update`` and
``cache-invalid`` messages and the outputs a ``task-done`` lists, and
consulted by the scheduler both for task
placement (locality) and for choosing peer transfer sources.

The table maintains *incremental indexes* alongside the raw facts so
the scheduler's hot path never rescans state:

* ``bytes_at(worker)`` — total known bytes held per worker, updated in
  O(1) on every replica event (used to rank replication targets).
* ``locality_scores(names)`` — per-worker byte totals restricted to one
  task's inputs, computed by walking the *holders of those inputs* only
  (O(replicas-of-inputs)) instead of probing every worker.

Every mutation prunes exhausted entries: a name with no surviving
replica drops its holders *and* its recorded size, and a worker with
no holdings drops its name set and byte total — a long-lived manager's
table is bounded by live replicas, not by everything it ever saw.

Most names have one holder (a task's outputs, before anything reads
them), so a name held by one worker maps to that worker's id; a set of
ids is made at the second holder and folds back to the id when one is
left.  The shape is private: every query answers as if each name had a
set, and :meth:`locate` hands out a fresh one.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Optional, Union

__all__ = ["ReplicaTable"]

#: a name's holders: the one worker's id, or a set of two or more ids
_Holders = Union[str, set[str]]


def _each(holders: _Holders) -> "tuple[str] | set[str]":
    """The worker ids of either shape, to iterate."""
    return (holders,) if holders.__class__ is str else holders


class ReplicaTable:
    """Bidirectional index of (cache name ↔ worker) replica facts."""

    def __init__(self) -> None:
        self._workers_by_name: dict[str, _Holders] = {}
        self._names_by_worker: dict[str, set[str]] = {}
        self._sizes: dict[str, int] = {}
        #: incremental per-worker byte totals (sum of known sizes held)
        self._bytes_by_worker: dict[str, int] = {}
        #: names that lost their last replica since :meth:`take_emptied`
        self._emptied: list[str] = []

    # -- mutation -------------------------------------------------------

    def add_replica(self, cache_name: str, worker_id: str, size: Optional[int] = None) -> None:
        """Record that ``worker_id`` now holds ``cache_name``.

        Idempotent; ``size`` (bytes) is recorded the first time it is
        learned and must not contradict a previously known size.  When a
        size is learned *after* replicas exist, every current holder's
        byte total is credited retroactively, so the incremental index
        always equals a from-scratch recount.
        """
        known = self._sizes.get(cache_name)
        if size is not None and known is not None and known != size:
            raise ValueError(
                f"size mismatch for {cache_name}: {known} vs {size} "
                "(files are immutable)"
            )
        holders = self._workers_by_name.get(cache_name)
        if holders is None:
            holders = self._workers_by_name[cache_name] = worker_id
            newly_held = True
        elif holders.__class__ is str:
            newly_held = holders != worker_id
            if newly_held:
                holders = self._workers_by_name[cache_name] = {holders, worker_id}
        else:
            newly_held = worker_id not in holders
            if newly_held:
                holders.add(worker_id)
        if newly_held:
            self._names_by_worker.setdefault(worker_id, set()).add(cache_name)
        if size is not None and known is None:
            self._sizes[cache_name] = size
            if size:
                for w in _each(holders):
                    self._bytes_by_worker[w] = self._bytes_by_worker.get(w, 0) + size
        elif newly_held:
            s = self._sizes.get(cache_name, 0)
            if s:
                self._bytes_by_worker[worker_id] = (
                    self._bytes_by_worker.get(worker_id, 0) + s
                )

    def remove_replica(self, cache_name: str, worker_id: str) -> None:
        """Forget one replica; idempotent if already absent."""
        if not self.has_replica(cache_name, worker_id):
            return
        self._debit(worker_id, cache_name)
        names = self._names_by_worker[worker_id]
        names.discard(cache_name)
        if not names:
            del self._names_by_worker[worker_id]
        self._unhold(cache_name, worker_id)

    def remove_worker(self, worker_id: str) -> set[str]:
        """Drop every replica held by a departed worker; returns the names."""
        names = self._names_by_worker.pop(worker_id, set())
        self._bytes_by_worker.pop(worker_id, None)
        for name in names:
            self._unhold(name, worker_id)
        return names

    def forget_name(self, cache_name: str) -> set[str]:
        """Drop every replica of a file (e.g. after garbage collection)."""
        holders = self._workers_by_name.pop(cache_name, None)
        workers = set() if holders is None else set(_each(holders))
        if workers:
            self._emptied.append(cache_name)
        for w in workers:
            self._debit(w, cache_name)
            names = self._names_by_worker[w]
            names.discard(cache_name)
            if not names:
                del self._names_by_worker[w]
        self._sizes.pop(cache_name, None)
        return workers

    def _unhold(self, cache_name: str, worker_id: str) -> None:
        """Take one holder (it is one) off a name's holders; the last
        one takes the name and its size with it."""
        holders = self._workers_by_name[cache_name]
        if holders.__class__ is str:
            del self._workers_by_name[cache_name]
            self._sizes.pop(cache_name, None)
            self._emptied.append(cache_name)
            return
        holders.discard(worker_id)
        if len(holders) == 1:
            (self._workers_by_name[cache_name],) = holders

    def _debit(self, worker_id: str, cache_name: str) -> None:
        """Subtract one replica's bytes from a worker's running total."""
        s = self._sizes.get(cache_name, 0)
        if not s:
            return
        remaining = self._bytes_by_worker.get(worker_id, 0) - s
        if remaining > 0:
            self._bytes_by_worker[worker_id] = remaining
        else:
            self._bytes_by_worker.pop(worker_id, None)

    def take_emptied(self) -> list[str]:
        """Names that lost their last replica since the previous call
        (a name may repeat; it may have been re-replicated since)."""
        emptied, self._emptied = self._emptied, []
        return emptied

    # -- queries ----------------------------------------------------------

    def locate(self, cache_name: str) -> set[str]:
        """Workers currently holding a replica (copy; may be empty)."""
        holders = self._workers_by_name.get(cache_name)
        return set() if holders is None else set(_each(holders))

    def holdings(self, worker_id: str) -> set[str]:
        """Cache names held by one worker (copy; may be empty)."""
        return set(self._names_by_worker.get(worker_id, ()))

    def has_replica(self, cache_name: str, worker_id: str) -> bool:
        """True if the specific worker holds the file."""
        holders = self._workers_by_name.get(cache_name)
        if holders.__class__ is str:
            return holders == worker_id
        return holders is not None and worker_id in holders

    def replica_count(self, cache_name: str) -> int:
        """Number of workers holding the file."""
        holders = self._workers_by_name.get(cache_name)
        if holders.__class__ is str:
            return 1
        return 0 if holders is None else len(holders)

    def size_of(self, cache_name: str, default: int = 0) -> int:
        """Known size in bytes, or ``default`` if never reported.

        Sizes are pruned with their last replica, so a name nobody holds
        reports ``default`` even if a size was once known.
        """
        return self._sizes.get(cache_name, default)

    def bytes_at(self, worker_id: str) -> int:
        """Total known bytes held by one worker — O(1) from the index."""
        return self._bytes_by_worker.get(worker_id, 0)

    def locality_scores(self, cache_names: Iterable[str]) -> dict[str, int]:
        """Per-worker input-byte totals for one task's inputs.

        Walks the holders of each input (rather than probing every
        worker), so the cost scales with the replicas of *these* files.
        Workers holding only zero-sized (or size-unknown) inputs score 0
        and are omitted — for placement they rank identically to
        non-holders, which the fallback path already covers.  A name
        listed twice is counted twice, exactly as
        :meth:`cached_bytes_at` does over the same list.
        """
        return self.locality_scores_among(cache_names, None)

    def locality_scores_among(
        self, cache_names: Iterable[str], among: Optional[AbstractSet[str]]
    ) -> dict[str, int]:
        """:meth:`locality_scores`, less every input held by all of
        ``among`` (a set of workers, or a dict's keys; None skips none).

        Such an input adds its bytes to every worker of ``among`` alike,
        so a ranking of ``among`` by these scores is the ranking by the
        full ones — and its holders, which are every worker once a
        shared input has spread, are not walked.  The check is a length
        comparison, then containment done in C.
        """
        scores: dict[str, int] = {}
        holders_of = self._workers_by_name
        n_among = -1 if among is None else len(among)
        for n in cache_names:
            size = self._sizes.get(n, 0)
            if not size:
                continue
            holders = holders_of.get(n)
            if holders is None:
                continue
            if holders.__class__ is str:
                # a sole holder is all of ``among`` only if it is all there is
                if n_among == 0 or (n_among == 1 and holders in among):
                    continue
                scores[holders] = scores.get(holders, 0) + size
                continue
            if len(holders) >= n_among >= 0 and among <= holders:
                continue  # held by every worker of ``among``
            for w in holders:
                scores[w] = scores.get(w, 0) + size
        return scores

    def cached_bytes_at(self, worker_id: str, cache_names: Iterable[str]) -> int:
        """Total known bytes of ``cache_names`` already present at a worker.

        This is the locality score used for task placement: the worker
        possessing the most input bytes wins (paper §3.3).
        """
        held = self._names_by_worker.get(worker_id, ())
        return sum(self._sizes.get(n, 0) for n in cache_names if n in held)

    def total_names(self) -> int:
        """Number of distinct cache names with at least one replica."""
        return len(self._workers_by_name)

    def total_replicas(self) -> int:
        """Number of (file, worker) replica pairs cluster-wide."""
        return sum(map(len, self._names_by_worker.values()))

    def names(self) -> set[str]:
        """All cache names with at least one replica (copy)."""
        return set(self._workers_by_name)
