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
The full O(W·I) scan it is checked against, and the ``(-priority,
seq)`` sort :class:`ReadyQueue` is checked against, live in
``tests/core/reference_scheduler.py`` as the equivalence suite's
oracle.  Within one placement pass the index also remembers request
shapes that fit no worker, so a full cluster is discovered once per
pass, not once per queued task (:meth:`PlacementIndex.infeasible`).

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
    "GATE_OK",
    "GATE_AVOID",
    "GATE_BANNED",
]

#: transfer-gate verdicts (see :attr:`Scheduler.transfer_gate`)
GATE_OK = 0        # source is clear to serve this object now
GATE_AVOID = 1     # temporarily avoid (retry backoff, blocklisted worker)
GATE_BANNED = 2    # permanently out of budget for this object


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
    """

    def __init__(self) -> None:
        #: tenant -> heap of (-priority, seq, token, task)
        self._heaps: dict[str, list[tuple[float, int, int, Task]]] = {}
        #: round-robin ring of tenants in first-appearance order
        self._ring: list[str] = []
        self._ring_pos = 0
        #: task_id -> (live token, task); absent = not queued.  Owning
        #: the task reference here keeps :meth:`tasks` complete even
        #: while a pump holds popped entries in its local stash.
        self._live: dict[str, tuple[int, Task]] = {}
        #: task_id -> entry held off the heap until :meth:`unpark`
        self._parked: dict[str, tuple[float, int, int, Task]] = {}
        self._next_token = 1

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

    def push(self, task: Task) -> None:
        """Queue (or re-queue) a ready task."""
        token = self._next_token
        self._next_token += 1
        self._live[task.task_id] = (token, task)
        self._parked.pop(task.task_id, None)  # superseded like a heap entry
        tenant = self._tenant_of(task)
        heap = self._heaps.get(tenant)
        if heap is None:
            heap = self._heaps[tenant] = []
            self._ring.append(tenant)
        heapq.heappush(heap, (-task.priority, task.seq, token, task))

    def discard(self, task: Task) -> None:
        """Drop a task if queued; its heap entry dies lazily."""
        self._live.pop(task.task_id, None)
        self._parked.pop(task.task_id, None)

    def tasks(self) -> list[Task]:
        """Every live queued task (order unspecified)."""
        return [task for _, task in self._live.values()]

    def queued_by_tenant(self) -> dict[str, int]:
        """Live queued-task counts per tenant (status/metrics view)."""
        counts: dict[str, int] = {}
        for _, task in self._live.values():
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

    def unpark(self, task_id: str) -> None:
        """Return a parked task's entry to the heap (no-op if not parked)."""
        entry = self._parked.pop(task_id, None)
        if entry is not None:
            heapq.heappush(self._heaps[self._tenant_of(entry[3])], entry)


class PlacementIndex:
    """Per-pump worker views plus a load heap for fallback placement.

    Wraps the pump's per-library-key view dict with a min-heap keyed by
    ``(failure_score, running_tasks, worker_id)`` — the exact rank of a
    worker holding none of a task's inputs.  Entries go stale when a
    dispatch changes a worker's load; staleness is detected lazily on
    pop by comparing against the live view, so updates are O(log W)
    pushes and queries are amortized O(log W).

    **Infeasible shapes.**  When :meth:`best_fallback` walks the whole
    heap and finds no view that fits a request, the request's shape is
    recorded, and :meth:`infeasible` answers every later request that is
    componentwise ≥ a recorded shape without touching the heap.  The
    invariant is "no view of this index fits a recorded shape": a bigger
    request cannot fit where a smaller one does not, and :meth:`update`
    drops any shape the refreshed view fits, so the answer is exact —
    not a heuristic — for as long as the index lives (one pump).
    """

    def __init__(
        self,
        views: dict[str, WorkerView],
        failure_score: Optional[Callable[[str], int]] = None,
    ) -> None:
        self.views = views
        self._fs = failure_score or (lambda _w: 0)
        self._heap = [
            (self._fs(wid), v.running_tasks, wid) for wid, v in views.items()
        ]
        heapq.heapify(self._heap)
        #: minimal request shapes no view fits (see class docstring)
        self._infeasible: list[Resources] = []

    def update(self, worker_id: str, view: Optional[WorkerView]) -> None:
        """Refresh one worker after a dispatch (None = now ineligible)."""
        if view is None:
            self.views.pop(worker_id, None)
            return
        self.views[worker_id] = view
        if self._infeasible and not view.draining:
            self._infeasible = [
                s for s in self._infeasible if not view.can_fit(s)
            ]
        heapq.heappush(
            self._heap, (self._fs(worker_id), view.running_tasks, worker_id)
        )

    def best_fallback(self, request: Resources) -> Optional[str]:
        """Least-loaded live worker that fits ``request``, or None.

        Pops stale entries permanently; valid entries that merely fail
        the fit check are restored, so a string of same-shaped tasks
        pays the scan once.
        """
        stash: list[tuple[int, int, str]] = []
        found: Optional[str] = None
        heap = self._heap
        while heap:
            f, r, wid = heap[0]
            view = self.views.get(wid)
            if view is None or (self._fs(wid), view.running_tasks) != (f, r):
                heapq.heappop(heap)  # stale: superseded or removed
                continue
            if not view.draining and view.can_fit(request):
                found = wid
                break
            stash.append(heapq.heappop(heap))
        for entry in stash:
            heapq.heappush(heap, entry)
        if found is None:
            # every live view was examined and none fits: remember the
            # shape (dropping recorded ones it makes redundant)
            self._infeasible = [
                s for s in self._infeasible if not request.fits_within(s)
            ]
            self._infeasible.append(request)
        return found

    def infeasible(self, request: Resources) -> bool:
        """True when ``request`` is known to fit no view of this index."""
        for shape in self._infeasible:
            if shape.fits_within(request):  # request ≥ shape everywhere
                return True
        return False


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

        A request the index already knows fits no view
        (:meth:`PlacementIndex.infeasible`) returns None before any
        scoring: locality candidates are looked up in the index's own
        views, so if no view fits, no candidate does either.
        """
        # what the placement takes from the pool: nothing for a
        # FunctionCall, whose index holds the workers with a free slot
        request = task.pool_request
        if index.infeasible(request):
            return None
        failure_score = self.failure_score or (lambda _w: 0)
        best_key: Optional[tuple] = None
        best: Optional[str] = None
        scored = 0
        if self.locality:
            scores = self.replicas.locality_scores(task.input_cache_names())
            for wid, score in scores.items():
                view = index.views.get(wid)
                if view is None or view.draining or not view.can_fit(request):
                    continue
                scored += 1
                key = (-score, failure_score(wid), view.running_tasks, wid)
                if best_key is None or key < best_key:
                    best_key, best = key, wid
        fallback = index.best_fallback(request)
        if fallback is not None:
            scored += 1
            view = index.views[fallback]
            key = (0, failure_score(fallback), view.running_tasks, fallback)
            if best_key is None or key < best_key:
                best_key, best = key, fallback
        counter = self.candidates_counter
        if counter is not None and scored:
            counter.inc(scored)
        return best

    # -- transfer planning --------------------------------------------------

    def plan_transfers(
        self,
        task: Task,
        worker_id: str,
        fixed_sources: Mapping[str, str],
    ) -> TransferPlan:
        """Plan how the chosen worker obtains each missing input.

        ``fixed_sources`` maps cache names to their original source key
        (``MANAGER_SOURCE`` or ``url:<host>``); files producible locally
        by a mini task map to the pseudo-source ``@minitask``.  The
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
            source = self._pick_source(cache_name, worker_id, fixed_sources, load, available)
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
        fixed_sources: Mapping[str, str],
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
        fixed = fixed_sources.get(cache_name, MANAGER_SOURCE)
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
