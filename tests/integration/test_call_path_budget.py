"""The serverless call path, counted — never timed.

A remote ``ServiceClient.call`` is meant to cost one round trip, one
``INVOKE`` and a handful of journal records; a worker cache object
that cannot survive a restart is meant to cost no index write; and at
the worker a call is meant to cost one fork, one file write by the
fork, one rename and one outbound frame.  Each test wraps the
functions that do that work, runs calls against a journaled manager
with one real worker, and bounds how often they were entered.  None of
them reads a clock (the style of ``tests/core/test_pump_budget.py``),
so a slow machine cannot fail them and a regression cannot hide behind
a fast one.
"""

import os
import select
import subprocess
import sys
import threading
from collections import Counter

import pytest

from repro.core.files import CacheLevel
from repro.observe.metrics import MetricsRegistry
from repro.protocol.connection import FrameReassembler
from repro.protocol.messages import INLINE_ARGS_MAX, M
from repro.service.client import ServiceClient
from repro.worker.cache import WorkerCache

from .conftest import Cluster
from tests.reactor_owner import on_reactor

LIBRARY = "budget"


def _functions():
    # nested, so they ship by value and the worker imports nothing
    def add(a, b):
        return a + b

    def size(data):
        return len(data)

    def triple(n):
        return n * 3

    def echo(data):
        return data

    return {"add": add, "size": size, "triple": triple, "echo": echo}


class _Service:
    """A journaled manager, one real worker, one attached client."""

    def __init__(self, tmp_path, n_workers=1, **mkw) -> None:
        self.cluster = Cluster(
            tmp_path, n_workers=n_workers,
            journal_dir=str(tmp_path / "journal"), **mkw,
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

    def _send(peer, message, payload=None):
        if hasattr(peer.owner, "worker_id"):
            sent.append(message["type"])
        return inner(peer, message, payload)

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
    acct = on_reactor(mgr, mgr.control.tenant_account, "alice")

    def sizes():
        names = mgr.registry.names_at_level(*CacheLevel)
        namespace = sum(mgr.control.in_namespace("alice", n) for n in names)
        return (len(mgr.registry), len(mgr.journal.declares), namespace)

    before = on_reactor(mgr, sizes)
    charged = acct.bytes_declared

    replies = [client.call(LIBRARY, "add", i, i) for i in range(200)]
    assert [service.value(client, r) for r in replies] == [2 * i for i in range(200)]

    after = on_reactor(mgr, sizes)
    assert acct.bytes_declared == charged  # inline arguments are free
    names = on_reactor(mgr, mgr.registry.names_at_level, *CacheLevel)
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
        a, b = on_reactor(
            mgr, lambda: (mgr.tasks[first["task_id"]], mgr.tasks[second["task_id"]])
        )
        assert a.merkle is not None and a.merkle == b.merkle
        assert a.args_name is None and b.args_name is None
        assert len(list(mgr.log.events("memo_hit"))) == 1
        assert first["outputs"] == second["outputs"]
    finally:
        svc.stop()


# -- the worker's half ----------------------------------------------------


class _CountedWorker:
    """An in-process ``Worker`` on the service's manager, instrumented.

    The worker, its library instance and the invocation forks are all
    forks of this process, so a wrapper installed here before the
    library is created is what each of them runs.  ``forks`` is a file
    the wrapped ``os.fork`` appends a byte to (the instance keeps no
    inherited descriptor, so a pipe would not survive); everything else
    is observed in the worker itself.
    """

    def __init__(self, svc: _Service, tmp_path, monkeypatch) -> None:
        from repro.worker import library_instance
        from repro.worker.worker import Worker

        self.fork_log = str(tmp_path / "forks")
        open(self.fork_log, "wb").close()
        real_fork = os.fork

        def counting_fork():
            with open(self.fork_log, "ab") as f:
                f.write(b"x")
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)

        #: sizes of every read the worker makes on an instance pipe
        self.pipe_reads: list[int] = []
        real_read = library_instance._read_exact

        def recording_read(fd, n):
            self.pipe_reads.append(n)
            return real_read(fd, n)

        monkeypatch.setattr(library_instance, "_read_exact", recording_read)

        self.worker = Worker(
            svc.mgr.host, svc.mgr.port, str(tmp_path / "worker-inproc"), cores=2
        )
        #: (staged inode, cached inode, staged path) per cache insert
        self.inserts: list[tuple[int, int, str]] = []
        cache = self.worker.cache
        real_insert = cache.insert_from

        def recording_insert(src, cache_name, level, now=0.0):
            inode = os.stat(src).st_ino
            entry = real_insert(src, cache_name, level, now)
            self.inserts.append((inode, os.stat(cache.path_of(cache_name)).st_ino, src))
            return entry

        cache.insert_from = recording_insert
        self.byte_inserts = 0
        real_bytes = cache.insert_bytes

        def counting_bytes(*args, **kwargs):
            self.byte_inserts += 1
            return real_bytes(*args, **kwargs)

        cache.insert_bytes = counting_bytes

        #: message types of every frame the worker sends, read back from
        #: the bytes its reactor writes to the socket
        self.frames: list[list[str]] = []
        wire = FrameReassembler()
        real_write = self.worker.reactor._write

        def recording_write(sock, data):
            sent = real_write(sock, data)
            wire.feed(bytes(data[:sent]))
            while (item := wire.next_item()) is not None:
                kind, message = item
                if kind == "bytes":
                    continue  # the object a send-back streams
                if message.get("found"):
                    wire.expect_bytes(message["size"])
                subs = message["messages"] if message["type"] == M.BATCH else [message]
                self.frames.append([m["type"] for m in subs])
            return sent

        self.worker.reactor._write = recording_write
        self.thread = threading.Thread(target=self.worker.run, daemon=True)
        self.thread.start()
        svc.cluster.wait_workers(1)

    def forks(self) -> int:
        return os.path.getsize(self.fork_log)


def test_worker_side_of_a_call_is_one_fork_one_write_one_frame(
    tmp_path, monkeypatch
):
    svc = _Service(tmp_path, n_workers=0)
    try:
        counted = _CountedWorker(svc, tmp_path, monkeypatch)
        client = svc.attach("alice")
        assert svc.value(client, client.call(LIBRARY, "add", 1, 2)) == 3
        assert counted.forks() == 2  # the instance, then the warm-up call

        forks = counted.forks()
        del counted.pipe_reads[:], counted.inserts[:], counted.frames[:]
        data = os.urandom(48 << 10)  # the result is 48 KiB + envelope
        notice = svc.notice(client, client.call(LIBRARY, "size", data))
        assert notice["result_ref"]["size"] < 100  # an int: tiny envelope
        big = svc.notice(client, client.call(LIBRARY, "echo", data))
        size = big["result_ref"]["size"]
        assert size > len(data)

        # exactly one fork per invocation, and it is the instance's
        assert counted.forks() == forks + 2
        # the fork wrote the envelope where the worker told it to, and
        # the worker moved that very file into the cache: same inode,
        # out of the staging area, no bytes written by the worker
        assert len(counted.inserts) == 2 and counted.byte_inserts == 0
        staging = counted.worker.cache.staging_dir
        for staged_inode, cached_inode, src in counted.inserts:
            assert staged_inode == cached_inode
            assert os.path.dirname(src) == staging
        assert os.listdir(staging) == []
        cached = counted.worker.cache.path_of(big["result_ref"]["cache_name"])
        assert os.path.getsize(cached) == size
        # nothing the size of a result crossed the instance pipe: every
        # read was a frame header or an atomic (<= PIPE_BUF) reply
        assert counted.pipe_reads and max(counted.pipe_reads) <= select.PIPE_BUF
        # per call one outbound message: the task_done, which lists the
        # result it cached (heartbeats aside)
        assert [f for f in counted.frames if M.TASK_DONE in f] == [[M.TASK_DONE]] * 2
        assert not [f for f in counted.frames if M.CACHE_UPDATE in f]
        assert client.result_proxy(big).resolve() == data
    finally:
        svc.stop()


def test_a_failed_call_caches_nothing_and_leaves_no_staging_file(
    tmp_path, monkeypatch
):
    svc = _Service(tmp_path, n_workers=0)
    try:
        counted = _CountedWorker(svc, tmp_path, monkeypatch)
        client = svc.attach("alice")
        reply = client.call(LIBRARY, "add", 1, "x")  # TypeError in the fork
        notice = client.wait(reply["task_id"], timeout=60.0)
        assert notice["exit_code"] == 1 and "TypeError" in notice["failure"]
        assert counted.inserts == []
        assert os.listdir(counted.worker.cache.staging_dir) == []
        assert [f for f in counted.frames if M.TASK_DONE in f] == [[M.TASK_DONE]]
    finally:
        svc.stop()


def test_worker_imports_no_multiprocessing():
    """Zero ``multiprocessing`` objects per call, structurally: the
    worker's whole import closure does not contain the package."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    probe = (
        "import sys, repro.worker.cli, repro.worker.library_instance\n"
        "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
    )
    assert out.stdout.strip() == "[]"


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
