"""Fair-share ReadyQueue: single-tenant equivalence and DRR behavior.

The multi-tenant queue layers deficit-round-robin across tenants on
top of the existing per-tenant ``(-priority, seq)`` heap ordering.
The load-bearing contract is that a single tenant (every pre-service
workflow) sees *exactly* the old global-heap order — pinned here by an
equivalence test against a reference implementation under randomized
push/pop/discard workloads.
"""

import heapq
import random

from repro.core.scheduler import ReadyQueue
from repro.core.task import Task


def make_task(task_id, seq, priority=0.0, tenant="default"):
    t = Task(f"cmd {task_id}")
    t.task_id = task_id
    t.seq = seq
    t.priority = priority
    t.tenant = tenant
    return t


class ReferenceQueue:
    """The pre-fair-share ReadyQueue: one global heap, token-gated."""

    def __init__(self):
        self._heap = []
        self._live = {}
        self._next_token = 1

    def push(self, task):
        token = self._next_token
        self._next_token += 1
        self._live[task.task_id] = (token, task)
        heapq.heappush(self._heap, (-task.priority, task.seq, token, task))

    def discard(self, task):
        self._live.pop(task.task_id, None)

    @property
    def snapshot_token(self):
        return self._next_token

    def pop_entries(self, upto_token):
        deferred = []
        try:
            while self._heap:
                entry = self._heap[0]
                _np, _seq, token, task = entry
                live = self._live.get(task.task_id)
                if live is None or live[0] != token:
                    heapq.heappop(self._heap)
                    continue
                if token >= upto_token:
                    heapq.heappop(self._heap)
                    deferred.append(entry)
                    continue
                heapq.heappop(self._heap)
                self._live.pop(task.task_id, None)
                yield entry
        finally:
            for entry in deferred:
                heapq.heappush(self._heap, entry)

    def restore(self, entry):
        _np, _seq, token, task = entry
        if self._live.get(task.task_id, (None,))[0] == token:
            heapq.heappush(self._heap, entry)


def drain_ids(q, upto_token=None, stash_every=None):
    """Pop everything eligible, optionally restoring every Nth entry."""
    token = q.snapshot_token if upto_token is None else upto_token
    popped, stashed = [], []
    for i, entry in enumerate(q.pop_entries(token)):
        if stash_every and i % stash_every == 0:
            stashed.append(entry)
        else:
            popped.append(entry[3].task_id)
    for entry in stashed:
        q.restore(entry)
    return popped


def test_single_tenant_order_matches_reference_randomized():
    rng = random.Random(20230601)
    for _round in range(30):
        fair = ReadyQueue()
        ref = ReferenceQueue()
        tasks = {}
        seq = 0
        for step in range(rng.randrange(5, 40)):
            op = rng.random()
            if op < 0.55 or not tasks:
                seq += 1
                t = make_task(f"t{seq}", seq, priority=rng.choice([0.0, 0.0, 1.0, -1.0]))
                tasks[t.task_id] = t
                fair.push(t)
                ref.push(t)
            elif op < 0.7:
                victim = tasks.pop(rng.choice(list(tasks)))
                fair.discard(victim)
                ref.discard(victim)
            else:
                got_fair = drain_ids(fair)
                got_ref = drain_ids(ref)
                assert got_fair == got_ref
                for tid in got_fair:
                    tasks.pop(tid, None)
        assert drain_ids(fair) == drain_ids(ref)


def test_single_tenant_respects_priority_then_seq():
    q = ReadyQueue()
    a = make_task("a", 1, priority=0.0)
    b = make_task("b", 2, priority=5.0)
    c = make_task("c", 3, priority=0.0)
    for t in (a, b, c):
        q.push(t)
    assert drain_ids(q) == ["b", "a", "c"]


def test_snapshot_token_excludes_later_pushes():
    q = ReadyQueue()
    q.push(make_task("a", 1))
    token = q.snapshot_token
    q.push(make_task("b", 2))
    assert drain_ids(q, upto_token=token) == ["a"]
    assert "b" in q  # deferred entry restored
    assert drain_ids(q) == ["b"]


def test_fair_share_interleaves_tenants_round_robin():
    q = ReadyQueue()
    seq = 0
    for i in range(6):
        seq += 1
        q.push(make_task(f"a{i}", seq, tenant="alice"))
    for i in range(3):
        seq += 1
        q.push(make_task(f"b{i}", seq, tenant="bob"))
    order = drain_ids(q)
    # bob's 3 tasks all dispatch within the first 6 pops despite alice
    # having submitted 6 tasks first
    assert all(tid in order[:6] for tid in ("b0", "b1", "b2"))
    # and within each tenant, FIFO order is preserved
    assert [t for t in order if t.startswith("a")] == [f"a{i}" for i in range(6)]
    assert [t for t in order if t.startswith("b")] == [f"b{i}" for i in range(3)]


def test_ring_position_persists_across_pumps():
    q = ReadyQueue()
    seq = 0
    for i in range(4):
        seq += 1
        q.push(make_task(f"a{i}", seq, tenant="alice"))
        seq += 1
        q.push(make_task(f"b{i}", seq, tenant="bob"))
    first = []
    for entry in q.pop_entries(q.snapshot_token):
        first.append(entry[3].task_id)
        if len(first) == 3:
            break
    second = drain_ids(q)
    combined = first + second
    # across the two pumps each tenant still dispatches alternately
    assert combined.count("a0") == 1
    for i in range(0, 8, 2):
        pair = {combined[i].rstrip("0123456789")[0], combined[i + 1].rstrip("0123456789")[0]}
        assert pair == {"a", "b"}


def test_restore_returns_entry_to_its_tenant_heap():
    q = ReadyQueue()
    a = make_task("a0", 1, tenant="alice")
    b = make_task("b0", 2, tenant="bob")
    q.push(a)
    q.push(b)
    entries = list(q.pop_entries(q.snapshot_token))
    assert len(entries) == 2
    for entry in entries:
        q.restore(entry)
    assert sorted(drain_ids(q)) == ["a0", "b0"]


def test_queued_by_tenant_counts_live_entries():
    q = ReadyQueue()
    q.push(make_task("a0", 1, tenant="alice"))
    q.push(make_task("a1", 2, tenant="alice"))
    b = make_task("b0", 3, tenant="bob")
    q.push(b)
    q.discard(b)
    assert q.queued_by_tenant() == {"alice": 2}


def test_parked_entries_stay_live_but_are_not_dealt():
    q = ReadyQueue()
    tasks = [make_task(f"a{i}", i + 1, tenant="alice") for i in range(3)]
    bob = make_task("b0", 9, tenant="bob")
    for t in tasks + [bob]:
        q.push(t)
    for entry in list(q.pop_entries(q.snapshot_token)):
        if entry[3].tenant == "alice":
            q.park(entry)
        else:
            q.restore(entry)
    # live for every observer, invisible to the deal
    assert len(q) == 4 and q.parked == 3
    assert q.queued_by_tenant() == {"alice": 3, "bob": 1}
    assert {t.task_id for t in q.tasks()} == {"a0", "a1", "a2", "b0"}
    entries = list(q.pop_entries(q.snapshot_token))
    assert [e[3].task_id for e in entries] == ["b0"]
    q.restore(entries[0])
    # discard and supersede reach a parked entry; unpark of either is a no-op
    q.discard(tasks[0])
    q.push(tasks[2])
    assert q.parked == 1 and len(q) == 3
    q.unpark("a0")
    q.unpark("a2")
    # unpark re-deals the same entry: a1 (seq 2) ahead of re-pushed a2
    q.unpark("a1")
    assert q.parked == 0
    got = [e[3].task_id for e in q.pop_entries(q.snapshot_token)]
    assert [g for g in got if g.startswith("a")] == ["a1", "a2"]
    assert sorted(got) == ["a1", "a2", "b0"]
