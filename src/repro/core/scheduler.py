"""Scheduling policy: task placement and transfer-source selection.

This module is *pure policy* — no I/O, no clocks — so the real runtime
(:mod:`repro.core.manager`) and the discrete-event simulator
(:mod:`repro.sim`) drive the exact same decision code (paper §3.3):

* **Placement** — tasks are scheduled primarily to match the cached
  files present at each worker: among workers with free capacity, the
  one possessing the most input bytes wins.  When no worker holds
  anything, an arbitrary (least-loaded) worker is chosen and file
  transfers are scheduled.
* **Transfer sources** — for each missing input the scheduler first
  tries a peer worker that holds a replica and is under the configured
  concurrent-transfer limit (worker transfers are always preferred over
  the original source); failing that, the file's *fixed* source
  (manager or remote URL) if under its own limit; failing that the
  transfer is deferred, which is what prevents hotspots.

Placement ranks eligible workers by ``(-cached_bytes, failure,
running, id)``.  :meth:`Scheduler.choose_worker_indexed` scores only
workers holding ≥1 input replica (from :class:`ReplicaTable`'s holder
index) and compares the best against a least-loaded fallback popped
from a :class:`PlacementIndex` heap — the same decision as ranking
every worker (the zero-score fallback is provably equivalent to
ranking every non-holder) at O(replicas-of-inputs + log W) per task.
The full O(W·I) scan it is checked against, the ``(-priority, seq)``
sort :class:`ReadyQueue` is checked against, and the placement loop
that rebuilt the index on every pass live in
``tests/core/reference_scheduler.py`` as the equivalence suites'
oracles.  The index lives as long as its owner keeps it current.  A
worker that cannot take a request leaves its heap until it changes, so
a full cluster is walked once, not once per queued task or per refill,
and the index then knows the shape fits nowhere
(:meth:`PlacementIndex.infeasible`).  An input every indexed worker
holds is not scored: it ranks them all alike.

:class:`ReadyQueue` is a lazy-deletion priority heap keyed on
``(-priority, seq)`` — ``seq`` being the monotonic submission sequence
a manager stamps on each task.  Tasks that cannot be placed until an
event arrives can be *parked*: still queued for every observer, but off
the heap the pump iterates.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional

from repro.core.library import FunctionCall
from repro.core.replica_table import ReplicaTable
from repro.core.resources import Resources
from repro.core.task import Task
from repro.core.transfer_table import MANAGER_SOURCE, TransferTable

__all__ = [
    "WorkerView",
    "TransferPlan",
    "Scheduler",
    "ReadyQueue",
    "PlacementIndex",
    "placement_key",
    "GATE_OK",
    "GATE_AVOID",
    "GATE_BANNED",
]

#: transfer-gate verdicts (see :attr:`Scheduler.transfer_gate`)
GATE_OK = 0        # source is clear to serve this object now
GATE_AVOID = 1     # temporarily avoid (retry backoff, blocklisted worker)
GATE_BANNED = 2    # permanently out of budget for this object


def placement_key(task: Task) -> Optional[str]:
    """Which :class:`PlacementIndex` places ``task``: its library's for a
    FunctionCall (the workers with a ready instance and a free slot),
    the pool-wide one (None) for everything else."""
    return task.library_name if isinstance(task, FunctionCall) else None


@dataclass
class WorkerView:
    """The scheduler's summary of one connected worker."""

    worker_id: str
    capacity: Resources
    allocated: Resources = field(default_factory=lambda: Resources(cores=0))
    running_tasks: int = 0
    #: set when the worker is draining and must not receive new work
    draining: bool = False

    def can_fit(self, request: Resources) -> bool:
        """True if ``request`` fits in the unallocated remainder.

        Hot path: called once per (ready task, worker) pair per pump,
        so it compares componentwise instead of allocating a summed
        :class:`Resources`.
        """
        a, c = self.allocated, self.capacity
        return (
            a.cores + request.cores <= c.cores
            and a.memory + request.memory <= c.memory
            and a.disk + request.disk <= c.disk
            and a.gpus + request.gpus <= c.gpus
        )


@dataclass
class TransferPlan:
    """Outcome of planning one task's missing-input transfers.

    ``transfers`` lists (cache_name, source) pairs to start now;
    ``pending`` lists inputs already in flight to the worker; and
    ``deferred`` lists inputs for which every source is currently at its
    concurrency limit — the task stays dispatched and the manager
    retries planning as transfers drain.
    """

    worker_id: str
    transfers: list[tuple[str, str]] = field(default_factory=list)
    pending: list[str] = field(default_factory=list)
    deferred: list[str] = field(default_factory=list)

    @property
    def satisfied(self) -> bool:
        """True when nothing was deferred (all inputs present/in motion)."""
        return not self.deferred


class ReadyQueue:
    """Per-tenant priority heaps ordered by ``(-priority, seq)`` with
    deficit-round-robin dispatch across tenants.

    Entries are invalidated lazily: :meth:`discard` drops the task's
    *token* and the stale heap entry is skipped when it surfaces, so
    removal (task finished, cancelled, failed) is O(1).  Pushing an already-queued task supersedes
    its previous entry (latest token wins).

    The token counter is also the pump's snapshot clock: entries pushed
    *during* a pump (lineage producers resurrected mid-loop) carry a
    token greater than the loop's snapshot and are deferred to the
    recursive re-pump, preserving the pre-heap "iterate over a sorted
    snapshot" semantics decision-for-decision.

    **Parking.**  A yielded entry the pump cannot act on until an event
    arrives (an input whose producer has not finished yet) is handed to
    :meth:`park` instead of :meth:`restore`: the task stays live — it
    still counts in ``len()``, :meth:`tasks` and
    :meth:`queued_by_tenant`, and :meth:`discard` still removes it — but
    it is off the heap, so pumps neither yield nor re-examine it.
    :meth:`unpark` re-pushes the *same* entry (same ``(-priority, seq,
    token)``), so the task resumes exactly the place it held.

    **Fair share.**  Tasks are bucketed by ``task.tenant`` into one heap
    per tenant, and :meth:`pop_entries` deals one entry per tenant per
    round (deficit round robin with a quantum of one task), resuming
    each pump where the previous one left off, so a tenant flooding the
    queue cannot starve a small workflow behind it.  Inside a tenant the
    order is exactly ``(-priority, seq)``.  With a single tenant the
    round-robin ring has one member and the pop order is global
    ``(-priority, seq)`` (the single-tenant equivalence test pins this).

    **What a pass may skip.**  The queue counts its *active* tasks —
    live and not parked — per placement class ``(placement_key,
    pool_request)`` (:meth:`classes`), and which of them the owner has
    not vouched for with :meth:`vet` (inputs known obtainable; a push or
    unpark, and :meth:`unvet`, withdraw it).  From these the pump
    can prove that the rest of a pass would only yield entries that
    fail, and end it with :meth:`skip`, which turns the tenant ring
    exactly as those yields would have.
    """

    def __init__(self) -> None:
        #: tenant -> heap of (-priority, seq, token, task)
        self._heaps: dict[str, list[tuple[float, int, int, Task]]] = {}
        #: round-robin ring of tenants in first-appearance order
        self._ring: list[str] = []
        self._ring_pos = 0
        #: task_id -> (live token, task, placement class); absent = not
        #: queued.  Owning the task reference here keeps :meth:`tasks`
        #: complete even while a pump holds popped entries in its stash.
        self._live: dict[str, tuple[int, Task, tuple]] = {}
        #: task_id -> entry held off the heap until :meth:`unpark`
        self._parked: dict[str, tuple[float, int, int, Task]] = {}
        self._next_token = 1
        #: placement class -> active (live, unparked) tasks of it
        self._classes: dict[tuple, int] = {}
        #: each placement class's one key tuple (what ``_live`` holds)
        self._class_keys: dict[tuple, tuple] = {}
        #: ids of active tasks the owner has not vouched for (:meth:`vet`)
        self._unvetted: set[str] = set()
        #: the most tasks ever queued, and ever parked, at once — kept
        #: where those counts rise (:meth:`push`, :meth:`park`)
        self.peak_depth = 0
        self.peak_parked = 0

    def __len__(self) -> int:
        return len(self._live)

    def __bool__(self) -> bool:
        return bool(self._live)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._live

    @property
    def snapshot_token(self) -> int:
        """Entries with a token at or beyond this were pushed after now."""
        return self._next_token

    @staticmethod
    def _tenant_of(task: Task) -> str:
        return getattr(task, "tenant", "default") or "default"

    def _activate(self, task_id: str, key: tuple) -> None:
        self._classes[key] = self._classes.get(key, 0) + 1
        self._unvetted.add(task_id)

    def _deactivate(self, task_id: str, key: tuple) -> None:
        left = self._classes[key] - 1
        if left:
            self._classes[key] = left
        else:
            del self._classes[key]
        self._unvetted.discard(task_id)

    def push(self, task: Task, parked: bool = False) -> None:
        """Queue (or re-queue) a ready task; ``parked`` holds it off the
        heap from the start, until :meth:`unpark`."""
        token = self._next_token
        self._next_token += 1
        tid = task.task_id
        old = self._live.get(tid)
        if old is not None and self._parked.pop(tid, None) is None:
            self._deactivate(tid, old[2])  # its entry is superseded
        # the request's fields, not the request: a class of plain values
        # hashes and compares without calling into the dataclass
        r = task.pool_request
        key = (placement_key(task), r.cores, r.memory, r.disk, r.gpus)
        key = self._class_keys.setdefault(key, key)
        self._live[tid] = (token, task, key)
        self.peak_depth = max(self.peak_depth, len(self._live))
        tenant = self._tenant_of(task)
        heap = self._heaps.get(tenant)
        if heap is None:
            heap = self._heaps[tenant] = []
            self._ring.append(tenant)
        entry = (-task.priority, task.seq, token, task)
        if parked:
            self._parked[tid] = entry
            self.peak_parked = max(self.peak_parked, len(self._parked))
            return
        self._activate(tid, key)
        heapq.heappush(heap, entry)

    def discard(self, task: Task) -> None:
        """Drop a task if queued; its heap entry dies lazily."""
        live = self._live.pop(task.task_id, None)
        if live is not None and self._parked.pop(task.task_id, None) is None:
            self._deactivate(task.task_id, live[2])

    def tasks(self) -> list[Task]:
        """Every live queued task (order unspecified)."""
        return [task for _, task, _ in self._live.values()]

    def queued_by_tenant(self) -> dict[str, int]:
        """Live queued-task counts per tenant (status/metrics view)."""
        counts: dict[str, int] = {}
        for _, task, _ in self._live.values():
            tenant = self._tenant_of(task)
            counts[tenant] = counts.get(tenant, 0) + 1
        return counts

    def _pop_valid(
        self,
        tenant: str,
        upto_token: int,
        deferred: list[tuple[float, int, int, Task]],
    ) -> Optional[tuple[float, int, int, Task]]:
        """Best eligible entry of one tenant's heap (stale ones dropped)."""
        heap = self._heaps.get(tenant)
        while heap:
            entry = heap[0]
            _, _, token, task = entry
            live = self._live.get(task.task_id)
            if live is None or live[0] != token:
                heapq.heappop(heap)  # discarded or superseded
                continue
            if token >= upto_token:
                deferred.append(heapq.heappop(heap))
                continue
            return heapq.heappop(heap)
        return None

    def pop_entries(self, upto_token: int) -> Iterator[tuple[float, int, int, Task]]:
        """Yield valid entries in fair-share order, skipping stale ones.

        Only entries with ``token < upto_token`` are yielded; newer ones
        (pushed mid-iteration) are returned to the heap when iteration
        ends.  The caller must either :meth:`discard` the yielded task
        (placed/failed) or hand the entry back through :meth:`restore`.
        Each yield advances the tenant ring by one position regardless
        of what the caller does with the entry, so one capacity-starved
        tenant cannot monopolize the placement loop.
        """
        deferred: list[tuple[float, int, int, Task]] = []
        try:
            while self._ring:
                entry = None
                for _ in range(len(self._ring)):
                    tenant = self._ring[self._ring_pos % len(self._ring)]
                    self._ring_pos = (self._ring_pos + 1) % len(self._ring)
                    entry = self._pop_valid(tenant, upto_token, deferred)
                    if entry is not None:
                        break
                if entry is None:
                    return  # a full silent round: nothing eligible remains
                yield entry
        finally:
            for entry in deferred:
                heapq.heappush(self._heaps[self._tenant_of(entry[3])], entry)

    def restore(self, entry: tuple[float, int, int, Task]) -> None:
        """Return an unplaced entry to the heap (unless discarded since)."""
        _, _, token, task = entry
        live = self._live.get(task.task_id)
        if live is not None and live[0] == token:
            heapq.heappush(self._heaps[self._tenant_of(task)], entry)

    @property
    def parked(self) -> int:
        """Live tasks currently held off the heap."""
        return len(self._parked)

    def park(self, entry: tuple[float, int, int, Task]) -> None:
        """Hold a yielded entry off the heap until :meth:`unpark`."""
        _, _, token, task = entry
        live = self._live.get(task.task_id)
        if live is not None and live[0] == token:
            self._parked[task.task_id] = entry
            self.peak_parked = max(self.peak_parked, len(self._parked))
            self._deactivate(task.task_id, live[2])

    def unpark(self, task_id: str) -> bool:
        """Return a parked task's entry to the heap; False (and nothing
        done) if it was not parked."""
        entry = self._parked.pop(task_id, None)
        if entry is None:
            return False
        heapq.heappush(self._heaps[self._tenant_of(entry[3])], entry)
        self._activate(task_id, self._live[task_id][2])
        return True

    # -- what a pass may skip --------------------------------------------

    def vet(self, task: Task) -> None:
        """The owner knows ``task``'s inputs obtainable (until the next
        push, unpark or :meth:`unvet` of it)."""
        self._unvetted.discard(task.task_id)

    def unvet(self, task: Task) -> None:
        """The owner no longer knows ``task``'s inputs obtainable."""
        if task.task_id in self._live and task.task_id not in self._parked:
            self._unvetted.add(task.task_id)

    @property
    def all_vetted(self) -> bool:
        """True when every active task is vetted."""
        return not self._unvetted

    def classes(self) -> Iterator[tuple[Optional[str], Resources]]:
        """The distinct ``(placement_key, pool_request)`` of active tasks."""
        for key, *request in self._classes:
            yield key, Resources(*request)

    def skip(self, yields: int, upto_token: int) -> None:
        """Turn the tenant ring as the next ``yields`` yields of the
        current ``pop_entries(upto_token)`` pass would have, without
        popping — for a pass whose every remaining entry would go back
        through :meth:`restore`.

        What a tenant has left to yield is what its heap holds that the
        pass may yield (live, older than ``upto_token``); the entries the
        pass popped are not in it.  A tenant with nothing left is passed
        over, as an empty heap is, and once nothing is left anywhere the
        pass would have ended on a silent round, which leaves the ring
        where it was.
        """
        ring = self._ring
        if len(ring) < 2:
            return  # one tenant: every yield turns the ring back to it
        left = {}
        for tenant in ring:
            n = 0
            for _, _, token, task in self._heaps[tenant]:
                if n == yields:
                    break
                live = self._live.get(task.task_id)
                n += token < upto_token and live is not None and live[0] == token
            left[tenant] = n
        for _ in range(yields):
            for _ in range(len(ring)):
                tenant = ring[self._ring_pos % len(ring)]
                self._ring_pos = (self._ring_pos + 1) % len(ring)
                if left[tenant]:
                    left[tenant] -= 1
                    break
            else:
                return


class PlacementIndex:
    """Worker views plus a load heap for fallback placement, kept
    current by its owner for as long as it lives.

    Wraps one library key's view dict with a min-heap keyed by
    ``(failure_score, running_tasks, worker_id)`` — the exact rank of a
    worker holding none of a task's inputs.  The owner calls
    :meth:`update` for every worker whose view or failure score changed
    before it next reads the index (the control plane marks them through
    ``_view_changed`` and updates them in ``_index``).  Each worker has
    exactly one valid entry, the one :meth:`update` last made for it:
    either in the heap or *parked* (below).  Older entries go stale and
    are dropped lazily when they surface, so updates are O(log W)
    pushes, queries amortized O(log W), and the heap is compacted to
    its valid entries once stale ones outnumber them.  An update skipped
    for a failure-score change would leave the worker ranked by its old
    score.

    **Parking.**  A view :meth:`best_fallback` finds unable to take a
    request (full for that shape, or draining) leaves the heap, parked
    on the request's shape.  It stays out until :meth:`update` refreshes
    it, or a request arrives that is not componentwise ≥ its shape: a
    view that does not fit a shape fits no bigger request, so the walk
    skips exactly the views it would have rejected.  A full cluster is
    therefore walked once; after that each freed worker comes back by
    itself and is the next walk's first entry.  The parked shapes form a
    chain (a request un-parks every shape it is not ≥ before it parks
    anything), and each un-park is a set and dict operation.

    **Infeasible shapes.**  When every view is parked, the index knows
    that no view fits any request ≥ the largest parked shape, and
    :meth:`infeasible` answers such requests without touching the heap.
    A failed walk leaves exactly that state, so it records nothing more.
    Before an un-park breaks it — a view updated into the index or a
    request smaller than a parked shape — the fact moves into a record
    of shapes (the largest parked shape, unless the refreshed view fits
    it), which :meth:`infeasible` also reads, so a fact lives in one of
    the two places, never both.  The record's invariant is "no
    view of this index fits a recorded shape": a bigger request cannot
    fit where a smaller one does not, a view that shrinks or leaves
    cannot break it, and :meth:`update` drops any shape the refreshed
    view fits — so both answers are exact, not heuristics, for as long
    as the owner keeps the index current.
    """

    def __init__(
        self,
        views: dict[str, WorkerView],
        failure_score: Optional[Callable[[str], int]] = None,
    ) -> None:
        self.views = views
        self._fs = failure_score or (lambda _w: 0)
        #: worker -> its one valid entry (validity is identity)
        self._entries = {
            wid: (self._fs(wid), v.running_tasks, wid) for wid, v in views.items()
        }
        self._heap = list(self._entries.values())
        heapq.heapify(self._heap)
        #: request shape -> workers parked on it, and the reverse
        self._parked: dict[Resources, set[str]] = {}
        self._parked_on: dict[str, Resources] = {}
        #: minimal request shapes no view fits (see class docstring)
        self._infeasible: list[Resources] = []

    def update(self, worker_id: str, view: Optional[WorkerView]) -> None:
        """Refresh one worker whose view or failure score may have
        changed (None = now ineligible)."""
        parked_on = self._parked_on
        if view is not None and self._parked and len(parked_on) == len(self._entries):
            # every view is parked; before this one comes back, keep
            # what that proves unless the refreshed view disproves it
            top = self._parked_top()
            if view.draining or not view.can_fit(top):
                self._record(top)
        shape = parked_on.pop(worker_id, None)
        if shape is not None:
            group = self._parked[shape]
            group.discard(worker_id)
            if not group:
                del self._parked[shape]
        if view is None:
            self.views.pop(worker_id, None)
            self._entries.pop(worker_id, None)
            return
        self.views[worker_id] = view
        if self._infeasible and not view.draining:
            self._infeasible = [
                s for s in self._infeasible if not view.can_fit(s)
            ]
        entry = (self._fs(worker_id), view.running_tasks, worker_id)
        old = self._entries.get(worker_id)
        if old == entry:
            if shape is not None:
                heapq.heappush(self._heap, old)  # back from parking
            return  # same rank: the entry in the heap still stands
        self._entries[worker_id] = entry
        heap = self._heap
        heapq.heappush(heap, entry)
        if len(heap) > 2 * (len(self._entries) - len(parked_on)) + 8:
            # keep the valid entries only: a parked one is not in the
            # heap, and compaction must not bring it back
            entries = self._entries
            self._heap = [e for e in heap if entries.get(e[2]) is e]
            heapq.heapify(self._heap)

    def best_fallback(self, request: Resources) -> Optional[str]:
        """Least-loaded live worker that fits ``request``, or None.

        Un-parks the views parked on shapes ``request`` is not ≥, then
        walks the heap: stale entries are dropped, and a valid one that
        cannot take ``request`` is parked on it.
        """
        for shape in self._parked:
            if not shape.fits_within(request):
                self._unpark_for(request)
                break
        heap = self._heap
        entries = self._entries
        views = self.views
        group: Optional[set[str]] = None
        while heap:
            entry = heap[0]
            wid = entry[2]
            if entries.get(wid) is not entry:
                heapq.heappop(heap)  # stale: superseded or removed
                continue
            view = views[wid]
            if not view.draining and view.can_fit(request):
                return wid
            heapq.heappop(heap)
            if group is None:
                group = self._parked.get(request)
                if group is None:
                    group = self._parked[request] = set()
            group.add(wid)
            self._parked_on[wid] = request
        # every view is parked on a shape ≤ request now: that is the
        # record of this failure, and nothing else keeps it
        return None

    def infeasible(self, request: Resources) -> bool:
        """True when ``request`` is known to fit no view of this index."""
        for shape in self._infeasible:
            if shape.fits_within(request):  # request ≥ shape everywhere
                return True
        if len(self._parked_on) != len(self._entries):
            return False  # some view is in the heap
        for shape in self._parked:
            if not shape.fits_within(request):
                return False
        return True

    def _unpark_for(self, request: Resources) -> None:
        """Return to the heap every view parked on a shape ``request``
        is not ≥ (what a smaller or incomparable request may fit)."""
        if len(self._parked_on) == len(self._entries):
            self._record(self._parked_top())
        heap = self._heap
        entries = self._entries
        for shape in [s for s in self._parked if not s.fits_within(request)]:
            for wid in self._parked.pop(shape):
                del self._parked_on[wid]
                heapq.heappush(heap, entries[wid])

    def _parked_top(self) -> Resources:
        """The largest parked shape (they form a chain): what no view
        fits while every view is parked."""
        shapes = iter(self._parked)
        top = next(shapes)
        for shape in shapes:
            if top.fits_within(shape):
                top = shape
        return top

    def _record(self, shape: Resources) -> None:
        """Remember that no view fits ``shape`` (unless already implied),
        dropping recorded shapes it makes redundant."""
        for s in self._infeasible:
            if s.fits_within(shape):
                return
        self._infeasible = [s for s in self._infeasible if not shape.fits_within(s)]
        self._infeasible.append(shape)


class Scheduler:
    """Stateless decision procedures over the manager's state tables."""

    def __init__(
        self,
        replicas: ReplicaTable,
        transfers: TransferTable,
        locality: bool = True,
    ) -> None:
        self.replicas = replicas
        self.transfers = transfers
        #: disable to get the random-placement baseline used in ablations
        self.locality = locality
        #: optional hook (cache_name, source) -> GATE_* letting the
        #: control plane veto sources (retry backoff, failure blocklist,
        #: exhausted per-source budgets); None gates nothing
        self.transfer_gate: Optional[Callable[[str, str], int]] = None
        #: optional hook worker_id -> failure score; workers with higher
        #: scores are deprioritized in placement (after locality)
        self.failure_score: Optional[Callable[[str], int]] = None
        #: optional counter instrument fed the number of (task, worker)
        #: pairs actually scored by the indexed hot path
        self.candidates_counter: Optional[object] = None

    # -- placement -------------------------------------------------------

    def choose_worker_indexed(
        self, task: Task, index: PlacementIndex
    ) -> Optional[str]:
        """Pick the worker to run ``task`` on, or None if none fits.

        Ranking: most cached input bytes, then lowest failure score
        (repeat offenders are deprioritized, paper §2.2 reliability),
        then fewest running tasks (to spread load), then worker id (for
        determinism).  With locality disabled, the locality key is 0.

        Scores only the workers holding ≥1 of the task's input bytes
        (candidates from :meth:`ReplicaTable.locality_scores`) and
        compares the best against the least-loaded eligible worker from
        the index's load heap, instead of scanning every worker.
        Equivalence argument: every worker outside the candidate set
        has locality score exactly 0, and for score-0 workers the full
        rank ``(0, failure, running, id)`` *is* the heap key — the heap
        minimum therefore ranks at or below every other non-candidate,
        and comparing it against the best candidate yields the same
        minimum as the full scan.  (If the heap minimum happens to also
        be a candidate, its candidate key is ≤ its zero-score key, so
        the comparison is still exact.)

        An input every view of the index holds is not scored
        (:meth:`ReplicaTable.locality_scores_among`).  It adds the same
        bytes to every view — the fallback's included, since it is a
        view — so every view's full rank is its rank without that input
        shifted by one constant in the first component: the order of
        any two views is unchanged, ties included (their failure score,
        load and id are untouched), and the argument above then applies
        to the reduced scores word for word.  A view left at score 0 by
        the skip is ranked by the fallback heap like any non-holder.
        Once a shared input has reached every worker, this is what keeps
        a placement from walking all of them.

        A request the index already knows fits no view
        (:meth:`PlacementIndex.infeasible`) returns None before any
        scoring, and so does one the fallback finds no view for: the
        fallback is the best of every view that fits, and locality
        candidates are looked up in the index's own views, so if no view
        fits, no candidate does either.  (The minimum of distinct keys
        does not depend on the order they are compared in.)
        """
        # what the placement takes from the pool: nothing for a
        # FunctionCall, whose index holds the workers with a free slot
        request = task.pool_request
        if index.infeasible(request):
            return None
        best = index.best_fallback(request)
        if best is None:
            return None
        failure_score = self.failure_score or (lambda _w: 0)
        views = index.views
        best_key = (0, failure_score(best), views[best].running_tasks, best)
        scored = 1
        if self.locality:
            scores = self.replicas.locality_scores_among(
                task.input_cache_names(), views.keys()
            )
            for wid, score in scores.items():
                view = views.get(wid)
                if view is None or view.draining or not view.can_fit(request):
                    continue
                scored += 1
                key = (-score, failure_score(wid), view.running_tasks, wid)
                if key < best_key:
                    best_key, best = key, wid
        counter = self.candidates_counter
        if counter is not None:
            counter.inc(scored)
        return best

    # -- transfer planning --------------------------------------------------

    def plan_transfers(
        self,
        task: Task,
        worker_id: str,
        sources: Mapping[str, str],
    ) -> TransferPlan:
        """Plan how the chosen worker obtains each missing input.

        ``sources`` maps cache names to the source key that serves them
        when no peer can (``MANAGER_SOURCE`` or ``url:<host>``; the
        control plane passes its registry's ``sources``); files
        producible locally by a mini task map to the pseudo-source
        ``@minitask``, and a name it does not know to the manager.  The
        returned plan never exceeds any source's concurrency limit and
        never duplicates a transfer already in flight.

        The plan reserves source slots *as it assigns them* so that one
        planning round for a many-input task cannot overload a source.
        """
        plan = TransferPlan(worker_id=worker_id)
        reserved: dict[str, int] = {}

        def load(source: str) -> int:
            return self.transfers.source_load(source) + reserved.get(source, 0)

        def available(source: str) -> bool:
            r = reserved.get(source)
            if not r:
                # fast path: the table's incremental saturation view
                return self.transfers.source_available(source)
            limit = self.transfers.limit_for(source)
            return limit is None or self.transfers.source_load(source) + r < limit

        for cache_name in task.input_cache_names():
            if self.replicas.has_replica(cache_name, worker_id):
                continue  # already present
            if self.transfers.in_flight(cache_name, worker_id):
                plan.pending.append(cache_name)
                continue
            source = self._pick_source(cache_name, worker_id, sources, load, available)
            if source is None:
                plan.deferred.append(cache_name)
            else:
                plan.transfers.append((cache_name, source))
                reserved[source] = reserved.get(source, 0) + 1
        return plan

    def _pick_source(
        self,
        cache_name: str,
        dest_worker: str,
        sources: Mapping[str, str],
        load,
        available,
    ) -> Optional[str]:
        """Best source for one object, or None if all are saturated.

        Peer replicas are preferred over the fixed source (paper §3.3:
        "this conservative approach always prioritizes worker transfers
        over the original task description"); among peers the
        least-loaded one wins to equalize fan-out.  The transfer gate
        can veto sources: gated-AVOID sources (backoff, blocklist) are
        used only as a last resort when nothing else can ever serve the
        object; gated-BANNED sources are never used.
        """
        gate = self.transfer_gate or (lambda _n, _s: GATE_OK)
        peers = [
            w
            for w in self.replicas.locate(cache_name)
            if w != dest_worker and gate(cache_name, w) < GATE_BANNED
        ]
        usable = [
            w for w in peers if available(w) and gate(cache_name, w) == GATE_OK
        ]
        if usable:
            return min(usable, key=lambda w: (load(w), w))
        peers_possible = (
            self.transfers.worker_limit is None or self.transfers.worker_limit > 0
        )
        if peers_possible and any(gate(cache_name, w) == GATE_OK for w in peers):
            # replicas exist in-cluster but every clear holder is at its
            # limit: wait for a peer slot instead of re-reading the
            # original source — this is what cuts shared-FS loads from
            # one-per-worker down to the initial handful (paper §4.2,
            # Colmena).  (With peer transfers disabled, fall through.)
            return None
        fixed = sources.get(cache_name, MANAGER_SOURCE)
        if fixed == "@minitask":
            # materialized locally at the worker; no network source needed
            return fixed if gate(cache_name, fixed) == GATE_OK else None
        fixed_gate = (
            gate(cache_name, fixed) if fixed != "@none" else GATE_BANNED
        )
        if fixed != "@none" and fixed_gate == GATE_OK and available(fixed):
            return fixed
        if fixed_gate >= GATE_BANNED and peers_possible:
            # nothing unimpeded can ever serve this object again; an
            # avoided peer (blocklisted / backing off) beats starvation
            fallback = [w for w in peers if available(w)]
            if fallback:
                return min(fallback, key=lambda w: (load(w), w))
        return None
