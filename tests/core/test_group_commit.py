"""The durability order of journal group commit.

The reactor journals a whole event sweep with one fsync.  The contract
that makes that safe: nothing a client, a worker or the application can
observe leaves the manager before the records behind it are on disk.
These tests put every journal append, every fsync of the journal's file
and every frame offered to a socket on one global timeline, drive
submits and completions through a real reactor, and check the order —
no clocks, only sequence.
"""

import json
import os
import struct
import sys
import threading

import pytest

from repro.core.journal import Journal
from repro.core.manager import Manager
from repro.core.reactor import Reactor
from repro.protocol.messages import M
from repro.service.client import ClientError, ServiceClient
from repro.worker.scripted import ScriptedWorker

_LEN = struct.Struct(">I")


class _WireStream:
    """The frames one socket has been offered, decoded once each.

    A frame is first offered whole (it is one FIFO item), but what the
    socket did not take is offered again from wherever ``send``
    stopped — mid-frame, or inside a payload; absolute stream offsets
    sort that out.
    """

    def __init__(self) -> None:
        self.sent = 0  # bytes the socket has taken
        self.seen = 0  # offset up to which frames are decoded (>= sent)

    def offered(self, data: bytes) -> list:
        """Frames that begin in ``data`` and were not offered before."""
        out, offset = [], self.seen - self.sent
        while offset + _LEN.size <= len(data):
            (length,) = _LEN.unpack_from(data, offset)
            end = offset + _LEN.size + length
            assert end <= len(data), "a frame is first offered whole"
            frame = json.loads(data[offset + _LEN.size : end])
            if frame["type"] == M.PUT_FILE or frame.get("found"):
                end += int(frame["size"])
            else:
                end += int(frame.get("payload_size", 0))
            out.append(frame)
            offset = end
            self.seen = self.sent + end
        return out


class _Timeline:
    """One ordered record of appends, journal fsyncs, hand-overs and
    sweep ends, whichever thread they happen on."""

    def __init__(self, monkeypatch, mgr: Manager) -> None:
        self.events: list = []
        self._lock = threading.Lock()
        journal = mgr.journal.journal
        inner_append = journal.append

        def append(record):
            self._add("append", record, threading.current_thread())
            return inner_append(record)

        journal.append = append

        real_fsync = os.fsync

        def fsync(fd):
            real_fsync(fd)
            fh = journal._fh
            if fh is not None and fd == fh.fileno():
                self._add("fsync", None, threading.current_thread())

        monkeypatch.setattr(os, "fsync", fsync)

        # the reactor's one socket-write point: a frame is handed over
        # the first time any of its bytes is offered to the socket
        inner_write = Reactor._write
        streams: dict = {}

        def write(sock, data):
            stream = streams.setdefault(sock, _WireStream())
            for frame in stream.offered(bytes(data)):
                self._add("handover", frame, None)
            sent = inner_write(sock, data)
            stream.sent += sent
            return sent

        monkeypatch.setattr(Reactor, "_write", staticmethod(write))

        timeline = self

        class _SweepEnd:
            def observe(self, _seconds):
                timeline._add("sweep_end", None, None)

        mgr._m_loop = _SweepEnd()

    def _add(self, kind, what, thread) -> None:
        with self._lock:
            self.events.append((kind, what, thread))

    def snapshot(self) -> list:
        with self._lock:
            return list(self.events)


@pytest.fixture()
def journaled(tmp_path, monkeypatch):
    mgr = Manager(journal_dir=str(tmp_path / "journal"))
    worker = ScriptedWorker(mgr.host, mgr.port)
    timeline = _Timeline(monkeypatch, mgr)
    client = ServiceClient(mgr.host, mgr.port, "alice")
    yield mgr, client, timeline
    client.close()
    worker.close()
    mgr.close()


def _covered(events, record_index, frame_index) -> bool:
    """A journal fsync lies between the record and the frame."""
    return any(kind == "fsync" for kind, _w, _t in events[record_index:frame_index])


def test_frames_leave_after_the_fsync_that_covers_their_records(journaled):
    mgr, client, timeline = journaled
    declared = client.declare_buffer(b"durable before acknowledged")
    accepted = [
        client.submit("noop", inputs=[("in", declared["cache_name"])], outputs=["out"])
        for _ in range(8)
    ]
    results = client.run_until_done(timeout=30.0)
    assert len(results) == len(accepted)
    events = timeline.snapshot()

    def record_at(op, key, value):
        return next(
            i for i, (kind, rec, _t) in enumerate(events)
            if kind == "append" and rec["op"] == op and rec.get(key) == value
        )

    checked = 0
    for i, (kind, frame, _t) in enumerate(events):
        if kind != "handover":
            continue
        if frame["type"] == M.FILE_DECLARED:
            behind = record_at("declare", "name", frame["cache_name"])
        elif frame["type"] == M.TASK_ACCEPTED:
            behind = record_at("submit", "id", frame["task_id"])
        elif frame["type"] == M.TASK_RESULT:
            behind = record_at("done", "id", frame["task_id"])
        elif frame["type"] == M.EXECUTE:
            # a worker must not run what a restart would not know about
            behind = record_at("submit", "id", frame["task_id"])
        else:
            continue
        assert behind < i, frame
        assert _covered(events, behind, i), f"{frame['type']} left before its fsync"
        checked += 1
    assert checked >= 1 + 3 * len(accepted)
    # nothing journaled is left waiting for a sweep that may never come
    with mgr._lock:
        assert mgr.journal.journal._unsynced == 0


def test_one_fsync_per_sweep_that_journaled_and_none_otherwise(journaled):
    mgr, client, timeline = journaled
    for _ in range(6):
        client.submit("noop", outputs=["out"])
    client.run_until_done(timeout=30.0)
    # a few record-free sweeps: a fetch outside the tenant's namespace
    # is refused without journaling anything
    for _ in range(3):
        with pytest.raises(ClientError):
            client.fetch("temp-never-declared", timeout=5.0)
    reactor = mgr.reactor.thread
    sweeps, records, fsyncs = [], 0, 0
    for kind, _what, thread in timeline.snapshot():
        if kind == "append" and thread is reactor:
            records += 1
        elif kind == "fsync" and thread is reactor:
            fsyncs += 1
        elif kind == "sweep_end":
            sweeps.append((records, fsyncs))
            records = fsyncs = 0
    assert any(r >= 2 for r, _f in sweeps)  # a submit alone journals three
    assert any(r == 0 for r, _f in sweeps)
    for r, f in sweeps:
        assert f == (1 if r else 0), sweeps
    # the counters tell the same story: fewer fsyncs than records
    snap = mgr.metrics.snapshot()
    assert snap["journal.fsyncs"]["value"] < snap["journal.records"]["value"]
    assert snap["journal.records_per_sync"]["max"] >= 2


def test_an_append_off_the_reactor_is_durable_when_it_returns(journaled):
    mgr, _client, timeline = journaled
    before = len(timeline.snapshot())
    me = threading.current_thread()
    mgr.declare_buffer(b"library-mode declare")  # journals on this thread
    events = timeline.snapshot()[before:]
    mine = [(k, t) for k, _w, t in events if t is me]
    assert mine == [("append", me), ("fsync", me)]
    with mgr._lock:
        assert mgr.journal.journal._unsynced == 0


def test_reactor_and_application_threads_share_one_log_cleanly(journaled):
    """More journaling threads than cores, a short switch interval: the
    group-committing reactor and fsync-per-append application threads
    interleave on one file and every record still replays, framed."""
    mgr, client, _timeline = journaled
    threads_n, each = 8, 25
    errors: list = []

    def declare_many(k: int) -> None:
        try:
            for i in range(each):
                mgr.declare_buffer(f"thread {k} buffer {i}".encode())
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=declare_many, args=(k,)) for k in range(threads_n)
        ]
        for t in threads:
            t.start()
        accepted = [client.submit("noop", outputs=["out"]) for _ in range(40)]
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads) and not errors
        assert len(client.run_until_done(timeout=60.0)) == len(accepted)
    finally:
        sys.setswitchinterval(interval)
    with mgr._lock:
        assert mgr.journal.journal._unsynced == 0
        log_path = mgr.journal.journal.log_path
    records, good, torn = Journal(os.path.dirname(log_path))._read_log()
    assert torn == 0 and good == os.path.getsize(log_path)
    ops = [r["op"] for r in records]
    assert ops.count("submit") == ops.count("done") == len(accepted)
    buffers = [r for r in records if r["op"] == "declare" and r.get("kind") == "buffer"]
    assert len(buffers) == threads_n * each


def test_bare_journal_keeps_fsync_per_append(tmp_path, monkeypatch):
    """The framing layer on its own (as the layer bench drives it)."""
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
    j = Journal(str(tmp_path / "j"))
    for i in range(5):
        j.append({"op": "meta", "i": i})
        assert len(synced) == i + 1
    j.sync()  # nothing owed
    assert len(synced) == 5

    # group commit is per thread: this thread's appends wait for sync()
    j.begin_group_commit()
    for i in range(5):
        j.append({"op": "meta", "i": i})
    assert len(synced) == 5
    j.sync()
    assert len(synced) == 6
    j.close()
    records, stats = Journal(str(tmp_path / "j")).replay()
    assert len(records) == 10 and stats.torn_bytes == 0
