"""The serverless call path, counted — never timed.

A remote ``ServiceClient.call`` is meant to cost one round trip, one
``INVOKE`` and a handful of journal records; a worker cache object
that cannot survive a restart is meant to cost no index write.  Each
test wraps the functions that do that work, runs calls against a
journaled manager with one real worker, and bounds how often they were
entered.  None of them reads a clock (the style of
``tests/core/test_pump_budget.py``), so a slow machine cannot fail
them and a regression cannot hide behind a fast one.
"""

import os
from collections import Counter

import pytest

from repro.core.files import CacheLevel
from repro.observe.metrics import MetricsRegistry
from repro.protocol.messages import INLINE_ARGS_MAX, M
from repro.service.client import ServiceClient
from repro.worker.cache import WorkerCache

from .conftest import Cluster

LIBRARY = "budget"


def _functions():
    # nested, so they ship by value and the worker imports nothing
    def add(a, b):
        return a + b

    def size(data):
        return len(data)

    def triple(n):
        return n * 3

    return {"add": add, "size": size, "triple": triple}


class _Service:
    """A journaled manager, one real worker, one attached client."""

    def __init__(self, tmp_path, **mkw) -> None:
        self.cluster = Cluster(
            tmp_path, n_workers=1, journal_dir=str(tmp_path / "journal"), **mkw
        )
        self.mgr = self.cluster.manager
        self.clients: list[ServiceClient] = []
        self.cache_objects = tmp_path / "worker-w0" / "cache" / "objects"

    def attach(self, tenant: str) -> ServiceClient:
        client = ServiceClient(self.mgr.host, self.mgr.port, tenant)
        client.create_library(LIBRARY, _functions(), function_slots=2)
        self.clients.append(client)
        return client

    def notice(self, client: ServiceClient, reply: dict) -> dict:
        notice = client.wait(reply["task_id"], timeout=60.0)
        assert notice["exit_code"] == 0, notice
        return notice

    def value(self, client: ServiceClient, reply: dict):
        return client.result_proxy(self.notice(client, reply)).resolve()

    def stop(self) -> None:
        for client in self.clients:
            client.close()
        self.cluster.stop()


@pytest.fixture()
def service(tmp_path):
    svc = _Service(tmp_path)
    yield svc
    svc.stop()


def _count_client_io(client: ServiceClient) -> Counter:
    """Count socket writes and awaited replies of one client."""
    counts: Counter = Counter()

    def counting(name, inner):
        def wrapper(*args):
            counts[name] += 1
            return inner(*args)

        return wrapper

    conn = client.conn
    for name in ("send_message", "send_frame", "send_bytes"):
        setattr(conn, name, counting("writes", getattr(conn, name)))
    client._await = counting("awaits", client._await)
    return counts


def _record_worker_frames(mgr) -> list:
    """Every manager → worker frame type, in issue order."""
    sent: list = []
    inner = mgr._send

    def _send(handle, message, payload=None):
        if hasattr(handle, "worker_id"):
            sent.append(message["type"])
        return inner(handle, message, payload)

    mgr._send = _send
    return sent


def _record_journal(mgr) -> list:
    """Every record the manager appends to its journal."""
    records: list = []
    journal = mgr.journal.journal
    inner = journal.append

    def append(record):
        records.append(record)
        return inner(record)

    journal.append = append
    return records


def _manager_pushes(mgr) -> int:
    return sum(
        1 for e in mgr.log.events("transfer_start") if e.category == "@manager"
    )


def test_small_argument_call_is_one_round_trip_one_invoke(service):
    client = service.attach("alice")
    # warm-up: the library instance is up and the tenant is known
    assert service.value(client, client.call(LIBRARY, "add", 1, 2)) == 3
    mgr = service.mgr

    io = _count_client_io(client)
    frames = _record_worker_frames(mgr)
    records = _record_journal(mgr)
    pushes = _manager_pushes(mgr)
    synced = mgr.metrics.counter("journal.records").value
    registry = len(mgr.registry)

    reply = client.call(LIBRARY, "add", 20, 22)
    # one frame out (arguments riding it), one reply awaited
    # (two and two when every call declared its arguments first)
    assert io == {"writes": 1, "awaits": 1}
    notice = service.notice(client, reply)
    assert Counter(frames) == {M.INVOKE: 1}  # and no put_file
    assert _manager_pushes(mgr) == pushes
    # declare(result) submit tenant_name(result) replica(result) done
    # (nine when the arguments were a declared, staged, charged buffer)
    assert len(records) <= 5, [r["op"] for r in records]
    assert {"submit", "done"} <= {r["op"] for r in records}
    assert not [r for r in records if r.get("kind") == "buffer"]
    assert "tenant_bytes" not in {r["op"] for r in records}
    # the notice left after the fsync covering its records: all counted
    assert mgr.metrics.counter("journal.records").value - synced == len(records)
    assert len(mgr.registry) == registry + 1  # the result temp, nothing else
    assert client.result_proxy(notice).resolve() == 42


def test_large_arguments_still_travel_as_a_declared_buffer(service):
    client = service.attach("alice")
    assert service.value(client, client.call(LIBRARY, "add", 1, 2)) == 3
    mgr = service.mgr
    io = _count_client_io(client)
    frames = _record_worker_frames(mgr)
    records = _record_journal(mgr)

    data = os.urandom(INLINE_ARGS_MAX + 1)
    reply = client.call(LIBRARY, "size", data)
    # declare (frame + bytes) then submit; two replies
    assert io == {"writes": 3, "awaits": 2}
    notice = service.notice(client, reply)
    assert Counter(frames) == {M.PUT_FILE: 1, M.INVOKE: 1}
    assert client.result_proxy(notice).resolve() == len(data)
    declared = [r for r in records if r.get("kind") == "buffer"]
    assert len(declared) == 1 and declared[0]["size"] > INLINE_ARGS_MAX
    # staged arguments occupy cluster storage and are charged as such
    assert "tenant_bytes" in {r["op"] for r in records}
    assert declared[0]["name"] in os.listdir(service.cache_objects)


def test_the_size_rule_is_a_boundary_not_a_mode(service):
    """The largest inline blob and the smallest staged one differ by a byte."""
    client = service.attach("alice")
    frames = _record_worker_frames(service.mgr)
    # pickling adds a fixed envelope around the bytes argument: find the
    # argument length whose blob is exactly INLINE_ARGS_MAX
    from repro.protocol import serialization as ser

    overhead = len(ser.dumps({"args": (b"",), "kwargs": {}}))
    n = INLINE_ARGS_MAX - overhead
    while len(ser.dumps({"args": (bytes(n),), "kwargs": {}})) > INLINE_ARGS_MAX:
        n -= 1
    while len(ser.dumps({"args": (bytes(n + 1),), "kwargs": {}})) <= INLINE_ARGS_MAX:
        n += 1
    assert service.value(client, client.call(LIBRARY, "size", bytes(n))) == n
    assert frames.count(M.INVOKE) == 1 and M.PUT_FILE not in frames
    assert service.value(client, client.call(LIBRARY, "size", bytes(n + 1))) == n + 1
    assert frames.count(M.INVOKE) == 2 and frames.count(M.PUT_FILE) == 1


def test_small_argument_calls_leave_nothing_behind_but_results(service):
    """Always-on growth: 200 calls grow every table by 200 result temps."""
    client = service.attach("alice")
    assert service.value(client, client.call(LIBRARY, "add", 0, 0)) == 0
    mgr = service.mgr
    with mgr._lock:
        acct = mgr.control.tenant_account("alice")
        before = (len(mgr.registry), len(mgr.journal.declares), len(acct.names))
        charged = acct.bytes_declared

    replies = [client.call(LIBRARY, "add", i, i) for i in range(200)]
    assert [service.value(client, r) for r in replies] == [2 * i for i in range(200)]

    with mgr._lock:
        after = (len(mgr.registry), len(mgr.journal.declares), len(acct.names))
        assert acct.bytes_declared == charged  # inline arguments are free
        names = mgr.registry.names_at_level(*CacheLevel)
        assert not [n for n in names if n.startswith("buffer-")]
    assert [a - b for a, b in zip(after, before)] == [200, 200, 200]
    assert not [n for n in os.listdir(service.cache_objects) if n.startswith("buffer-")]


def test_two_tenants_memo_match_on_the_same_small_call(tmp_path):
    """Identity is the argument bytes, however they travelled."""
    svc = _Service(tmp_path, memo_dir=str(tmp_path / "memo"))
    try:
        alice, bob = svc.attach("alice"), svc.attach("bob")
        first = alice.call(LIBRARY, "triple", 14, deterministic=True)
        assert svc.value(alice, first) == 42
        second = bob.call(LIBRARY, "triple", 14, deterministic=True)
        assert svc.value(bob, second) == 42
        mgr = svc.mgr
        with mgr._lock:
            a, b = mgr.tasks[first["task_id"]], mgr.tasks[second["task_id"]]
            assert a.merkle is not None and a.merkle == b.merkle
            assert a.args_name is None and b.args_name is None
        assert len(list(mgr.log.events("memo_hit"))) == 1
        assert first["outputs"] == second["outputs"]
    finally:
        svc.stop()


# -- the worker cache index ----------------------------------------------


def test_index_is_written_only_for_what_survives_a_restart(tmp_path):
    metrics = MetricsRegistry()
    root = str(tmp_path / "cache")
    cache = WorkerCache(root, metrics=metrics)
    writes = metrics.counter("cache.index_writes")

    start = writes.value
    for i in range(50):
        cache.insert_bytes(b"x" * 10, f"temp-{i}", CacheLevel.WORKFLOW)
        cache.insert_bytes(b"y" * 10, f"scratch-{i}", CacheLevel.TASK)
    for i in range(50):
        assert cache.remove(f"temp-{i}")
    assert writes.value == start  # 150 mutations, zero index writes

    cache.insert_bytes(b"keep me", "dataset", CacheLevel.WORKER)
    assert writes.value == start + 1
    cache.insert_bytes(b"keep me", "dataset", CacheLevel.WORKER)  # idempotent
    assert writes.value == start + 1
    cache.insert_bytes(b"and me", "software", CacheLevel.WORKER)
    assert cache.remove("software")
    assert writes.value == start + 3

    # a restart keeps exactly the WORKER objects and deletes the rest
    reopened = WorkerCache(root)
    assert reopened.names() == {"dataset"}
    assert reopened.total_bytes() == len(b"keep me")
    assert os.listdir(reopened.objects_dir) == ["dataset"]
