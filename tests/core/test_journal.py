"""Unit tests for the durable control-plane journal.

Covers the framing layer (length-prefixed records, torn-tail
detection and truncation, atomic compacting snapshots), the domain
layer (fold semantics, redundant-record compaction, replay-cost
accounting), and the file/task serializer round-trips.
"""

import json
import os
import shutil
import struct

import pytest

from repro.core.control_plane import MINITASK_SOURCE, NO_SOURCE
from repro.core.events import Event
from repro.core.files import (
    BufferFile,
    CacheLevel,
    FileRegistry,
    RetrievedFile,
    TempFile,
    URLFile,
)
from repro.core.journal import (
    MAX_INLINE_BYTES,
    ControlPlaneJournal,
    Journal,
    build_task,
    file_spec,
    restore_file,
    task_spec,
)
from repro.core.resources import Resources
from repro.core.task import Task, TaskState

_LEN = struct.Struct(">I")


def _cached(worker, name, size):
    return Event(0.0, "file_cached", worker=worker, file=name, size=size)


# ----------------------------------------------------------------------
# Journal: framing
# ----------------------------------------------------------------------


def test_journal_append_replay_round_trip(tmp_path):
    j = Journal(str(tmp_path))
    for i in range(5):
        j.append({"op": "x", "i": i})
    j.close()

    records, stats = Journal(str(tmp_path)).replay()
    assert [r["i"] for r in records] == [0, 1, 2, 3, 4]
    assert stats.tail_records == 5
    assert stats.snapshot_records == 0
    assert stats.lifetime_records == 5
    assert stats.torn_bytes == 0


@pytest.mark.parametrize("cut", [1, 3])
def test_torn_trailing_record_is_detected_and_truncated(tmp_path, cut):
    """A crash mid-append tears only the last record; replay reports it
    and the next append writes over it."""
    j = Journal(str(tmp_path))
    j.append({"op": "keep", "i": 0})
    j.append({"op": "keep", "i": 1})
    j.append({"op": "doomed"})
    j.close()

    # tear `cut` bytes into the final record (prefix or payload)
    log = tmp_path / Journal.LOG_NAME
    data = log.read_bytes()
    torn_len = _LEN.size + len(json.dumps({"op": "doomed"}, separators=(",", ":")))
    log.write_bytes(data[: len(data) - torn_len + cut])

    j2 = Journal(str(tmp_path))
    records, stats = j2.replay()
    assert [r.get("i") for r in records] == [0, 1]
    assert stats.torn_bytes == cut
    # appending truncates the torn bytes so later replays stay aligned
    j2.append({"op": "keep", "i": 2})
    j2.close()
    records, stats = Journal(str(tmp_path)).replay()
    assert [r["i"] for r in records] == [0, 1, 2]
    assert stats.torn_bytes == 0


def test_framed_garbage_stops_replay_at_the_tear(tmp_path):
    """An intact length prefix over non-JSON bytes is still a tear:
    nothing after it can be trusted to be aligned."""
    j = Journal(str(tmp_path))
    j.append({"op": "keep"})
    j.close()
    log = tmp_path / Journal.LOG_NAME
    garbage = b"\x00not json"
    with open(log, "ab") as fh:
        fh.write(_LEN.pack(len(garbage)) + garbage)
    records, stats = Journal(str(tmp_path)).replay()
    assert len(records) == 1
    assert stats.torn_bytes == _LEN.size + len(garbage)


def test_compaction_bounds_replay_cost(tmp_path):
    j = Journal(str(tmp_path))
    for i in range(10):
        j.append({"op": "x", "i": i})
    # compact to a 2-record equivalent snapshot; the tail resets
    j.compact([{"op": "x", "i": "a"}, {"op": "x", "i": "b"}])
    j.append({"op": "x", "i": "tail"})
    j.close()

    records, stats = Journal(str(tmp_path)).replay()
    assert [r["i"] for r in records] == ["a", "b", "tail"]
    assert stats.snapshot_records == 2
    assert stats.tail_records == 1
    # lifetime counts every append ever made, not just what replayed
    assert stats.lifetime_records == 11
    assert stats.replayed_records < stats.lifetime_records


def test_corrupt_snapshot_falls_back_to_the_log(tmp_path):
    j = Journal(str(tmp_path))
    j.append({"op": "x", "i": 0})
    j.compact([{"op": "x", "i": 0}])
    j.append({"op": "x", "i": 1})
    j.close()
    (tmp_path / Journal.SNAPSHOT_NAME).write_text("{ not json")
    records, stats = Journal(str(tmp_path)).replay()
    # snapshot contents are gone, but the tail still replays
    assert [r["i"] for r in records] == [1]
    assert stats.snapshot_records == 0


# ----------------------------------------------------------------------
# ControlPlaneJournal: fold semantics and compaction
# ----------------------------------------------------------------------


def test_domain_fold_round_trip(tmp_path):
    cj = ControlPlaneJournal(str(tmp_path))
    assert not cj.recovered
    cj.record_meta(port=4711, project="p")
    cj.record_declare({"name": "f1", "kind": "buffer", "size": 3})
    cj.record_declare({"name": "f1", "kind": "buffer", "size": 3})  # dedup
    cj.record_quota("alice", 10, None)
    cj.record_quota("alice", 20, None)  # supersedes
    cj.record_tenant_bytes("alice", 100)
    cj.record_tenant_bytes("alice", 50)
    cj.record_session("tok-a", "C3", "alice")
    cj.record_session("tok-b", "C7", "bob")
    cj.record_session_closed("tok-b")
    cj.record_submit("t1", 1, "alice", {"command": "true"}, "tok-a")
    cj.record_submit("t2", 2, "alice", {"command": "false"}, None)
    cj.record_done("t1", ["out1"])
    cj(_cached("w0", "out1", 7))
    cj(_cached("w1", "out1", 7))
    cj(Event(0.0, "file_deleted", worker="w0", file="out1"))
    cj.close()

    back = ControlPlaneJournal(str(tmp_path))
    assert back.recovered
    assert back.meta["port"] == 4711
    assert set(back.declares) == {"f1"}
    assert back.quotas["alice"]["tasks"] == 20
    assert back.tenant_bytes["alice"] == 150
    assert set(back.sessions) == {"tok-a"}
    assert back.max_session_id == 7  # closed sessions still reserve ids
    assert back.max_seq == 2
    assert list(back.submits) == ["t1", "t2"] and not back.failed
    assert back.done == {"t1": {"op": "done", "id": "t1", "outputs": ["out1"]}}
    assert back.replica_hints["out1"] == {"w1": 7}
    assert back.known_workers() == {"w1"}
    back.close()


def test_domain_compaction_drops_redundant_records(tmp_path):
    """Per-grant replica records and incremental byte charges collapse:
    after compaction, replay reads back fewer records than were ever
    appended — the acceptance bound for restart cost."""
    cj = ControlPlaneJournal(str(tmp_path), snapshot_every=8)
    # 3 tenant-byte increments + 4 replica grants for one object that
    # moved around collapse to 1 total + 1 latest-location record
    for _ in range(3):
        cj.record_tenant_bytes("alice", 10)
    for w in ("w0", "w1", "w2"):
        cj(_cached(w, "obj", 5))
        cj(Event(0.0, "worker_leave", worker=w))
    cj(_cached("w3", "obj", 5))
    cj.record_declare({"name": "obj", "kind": "temp", "size": 5})
    # 11 appends >= snapshot_every=8: an automatic compaction ran (at the
    # declare: the event sink's appends leave it to a hand-written record)
    assert os.path.exists(os.path.join(str(tmp_path), Journal.SNAPSHOT_NAME))
    cj.close()

    back = ControlPlaneJournal(str(tmp_path))
    stats = back.last_replay_stats
    assert stats.replayed_records < stats.lifetime_records
    assert back.tenant_bytes["alice"] == 30
    assert back.replica_hints["obj"] == {"w3": 5}
    back.close()


def test_auto_compaction_notifies_on_compact(tmp_path):
    cj = ControlPlaneJournal(str(tmp_path), snapshot_every=8)
    compactions = []
    cj.on_compact = compactions.append
    for i in range(9):
        cj.record_tenant_bytes("t", 1)
    assert compactions  # fired with the lifetime record count
    assert compactions[0] >= 8
    cj.close()


def test_unknown_ops_are_skipped_not_fatal(tmp_path):
    j = Journal(str(tmp_path))
    j.append({"op": "from_the_future", "x": 1})
    j.append({"op": "declare", "name": "f", "kind": "temp", "size": 0})
    j.close()
    back = ControlPlaneJournal(str(tmp_path))
    assert set(back.declares) == {"f"}
    back.close()


# ----------------------------------------------------------------------
# serializers
# ----------------------------------------------------------------------


def test_buffer_file_spec_round_trip_retains_bytes():
    f = BufferFile(b"payload", CacheLevel.WORKFLOW)
    f.cache_name = "buffer-x"
    spec = file_spec(f, source="@manager", size=7, tenant="alice")
    back, source, size = restore_file(spec)
    assert isinstance(back, BufferFile)
    assert back.data == b"payload"
    assert back.cache_name == "buffer-x"
    assert (source, size) == ("@manager", 7)
    assert spec["tenant"] == "alice"


def test_oversized_buffer_restores_without_a_source():
    f = BufferFile(b"x", CacheLevel.WORKFLOW)
    f.cache_name = "buffer-big"
    spec = file_spec(f, source="@manager", size=1)
    del spec["data"]  # as if the payload exceeded MAX_INLINE_BYTES
    spec["size"] = MAX_INLINE_BYTES + 1
    back, source, _size = restore_file(spec)
    # bytes not retained: only a live replica can back this name now
    assert source == NO_SOURCE


def test_minitask_sourced_file_restores_without_a_source():
    f = URLFile("http://example.com/d", CacheLevel.WORKFLOW)
    f.cache_name = "url-d"
    spec = file_spec(f, source="@manager", size=4)
    spec["kind"] = "file"
    spec["source"] = MINITASK_SOURCE
    _back, source, _size = restore_file(spec)
    assert source == NO_SOURCE


def test_temp_file_spec_keeps_producer_lineage():
    f = TempFile(CacheLevel.WORKER)
    f.cache_name = "temp-z"
    f.producer_task_id = "t42"
    spec = file_spec(f, source="w0", size=9)
    back, source, _ = restore_file(spec)
    assert isinstance(back, TempFile)
    assert back.producer_task_id == "t42"
    assert source == "w0"  # sim node names round-trip verbatim


@pytest.mark.parametrize("keep", [False, True])
def test_a_retrieved_output_spec_keeps_its_flags(keep):
    f = RetrievedFile(CacheLevel.WORKFLOW, keep_at_worker=keep)
    f.cache_name = "file-out"
    spec = file_spec(f, source=NO_SOURCE, size=3)
    assert spec["kind"] == "file" and spec["bring_back"] is True
    back, _source, _size = restore_file(spec)
    assert isinstance(back, RetrievedFile)
    assert (back.bring_back, back.keep_at_worker) == (True, keep)
    plain, _source, _size = restore_file({"name": "file-in", "kind": "file"})
    assert (plain.bring_back, plain.keep_at_worker) == (False, False)
    assert not isinstance(plain, RetrievedFile)


def test_task_spec_round_trip(tmp_path):
    registry = FileRegistry()
    fin = BufferFile(b"in", CacheLevel.WORKFLOW)
    fin.cache_name = "buffer-in"
    fout = TempFile(CacheLevel.WORKFLOW)
    fout.cache_name = "temp-out"
    registry.register(fin)
    registry.register(fout)

    t = Task("cat in.txt > out.txt")
    t.category = "heavy"
    t.deterministic = True
    t.max_retries = 3
    t.env = {"K": "V"}
    t.add_input(fin, "in.txt")
    t.add_output(fout, "out.txt")
    t.sim_duration = 2.5
    t.sim_output_sizes = {"out.txt": 11}

    back = build_task(task_spec(t), registry)
    assert back is not None
    assert back.command == t.command
    assert back.category == "heavy"
    assert back.deterministic is True
    assert back.max_retries == 3
    assert back.env == {"K": "V"}
    assert [(sb, f.cache_name) for sb, f in back.inputs] == [("in.txt", "buffer-in")]
    assert [(sb, f.cache_name) for sb, f in back.outputs] == [("out.txt", "temp-out")]
    assert back.sim_duration == 2.5
    assert back.sim_output_sizes == {"out.txt": 11}


def test_a_restored_task_holds_only_the_fields_that_differ():
    """A default task comes back with an instance dict holding
    ``resources_explicit`` alone, not one entry per journaled field."""
    back = build_task(json.loads(json.dumps(task_spec(Task("true")))), FileRegistry())
    assert vars(back) == {"resources_explicit": True}
    assert back.env == {} and back.resources == Resources()
    sized = Task("true").set_resources(Resources(cores=2, memory=100))
    sized.priority = 5.0
    back = build_task(task_spec(sized), FileRegistry())
    assert back.resources == Resources(cores=2, memory=100)
    assert sorted(vars(back)) == ["priority", "resources", "resources_explicit"]


def test_task_referencing_unknown_file_is_not_restorable():
    t = Task("true")
    f = TempFile(CacheLevel.WORKFLOW)
    f.cache_name = "temp-gone"
    t.add_input(f, "in.txt")
    assert build_task(task_spec(t), FileRegistry()) is None


def test_serverless_call_is_not_restorable():
    assert build_task({"kind": "call", "command": ""}, FileRegistry()) is None


# ----------------------------------------------------------------------
# a journal written by an earlier release replays
# ----------------------------------------------------------------------

#: written at dec4602, when the control plane kept a name's size and
#: source in tables of their own: one worker; a buffer (inlined), a
#: buffer too large to inline, a URL, a local path, an untar mini task
#: and a plain ``File`` naming ``url:mirror``; a producer of a temp that
#: finished with 333 bytes, and its consumer still queued, whose output
#: was named and declared at submit
OLD_JOURNAL = os.path.join(os.path.dirname(__file__), "fixtures", "journal-dec4602")

#: every name that journal restores, with its size and source as the
#: release that wrote it restored them
OLD_JOURNAL_NAMES = {
    "buffer-md5-406abbf36d2baf5791c59d1f312fd8be": [15, "@manager"],
    "buffer-md5-c37e28fdafdb7319c5822431121bf043": [4194305, NO_SOURCE],
    "file-md5-dataset": [2048, "url:mirror"],
    "local-rnd-fixture-e3e70682c2094cac": [512, "@manager"],
    "task-md5-6e0cdddab8112f76af6c56ae49c7bcf7-fixture": [77, NO_SOURCE],
    "temp-rnd-fixture-0a5d2f346baa9455": [333, NO_SOURCE],
    "temp-rnd-fixture-f728b4fa42485e3a": [0, NO_SOURCE],
    "url-rnd-fixture-629f6fbed82c07cd": [4096, "url:data.example:8443"],
}


def test_a_journal_written_before_records_held_sizes_replays(tmp_path):
    from tests.core.test_control_plane import make_control

    shutil.copytree(OLD_JOURNAL, tmp_path / "journal")
    _port, control = make_control(journal=ControlPlaneJournal(str(tmp_path / "journal")))
    assert control.recover(grace=0.0)
    restored = {
        name: [control.size_of(name), control.sources.get(name)]
        for name in OLD_JOURNAL_NAMES
    }
    assert restored == OLD_JOURNAL_NAMES
    assert len(control.registry) == len(OLD_JOURNAL_NAMES)
    states = {t.task_id: t.state for t in control.tasks.values()}
    assert states == {"t1": TaskState.DONE, "t2": TaskState.READY}
    # its input's producer is done: not parked, the pump decides (a
    # holder re-announcing it, or the producer's re-run)
    assert control._ready.parked == 0
    control.journal.close()


#: written at 7cdfa5f, when each tenant's namespace was a set of names:
#: a service-mode manager with no worker; tenants ``alice`` and ``bob``
#: both declare ``SHARED`` (bob's is a cache hit), each declares bytes
#: of its own, and alice submits one task that reads ``SHARED`` and
#: names an output ``ALICE_OUT``.  Every name a tenant declared or
#: produced is a ``tenant_name`` record
NAMESPACE_JOURNAL = os.path.join(
    os.path.dirname(__file__), "fixtures", "journal-7cdfa5f"
)
SHARED = "buffer-md5-bd5b22ccbdb09436fc6144390b745122"
ALICE_OWN = "buffer-md5-c7a4c4036a1c322272b717b7c56bf82e"
BOB_OWN = "buffer-md5-781b5325c3970e2cdbabd73666860653"
ALICE_OUT = "temp-rnd-44263f0a5c9e-f2a74de452e6b438"


def test_a_journal_of_namespace_sets_replays_into_the_records(tmp_path):
    from repro.core.manager import Manager
    from repro.service.client import ClientError, ServiceClient
    from tests.reactor_owner import on_reactor

    shutil.copytree(NAMESPACE_JOURNAL, tmp_path / "journal")
    m = Manager(password="pw", journal_dir=str(tmp_path / "journal"))
    try:
        def namespaces():
            return {
                name: sorted(
                    t for t in ("alice", "bob") if m.control.in_namespace(t, name)
                )
                for name in (SHARED, ALICE_OWN, BOB_OWN, ALICE_OUT)
            }

        assert on_reactor(m, namespaces) == {
            SHARED: ["alice", "bob"],
            ALICE_OWN: ["alice"],
            BOB_OWN: ["bob"],
            ALICE_OUT: ["alice"],
        }
        # the output is alice's through its producer, not an owner field
        assert on_reactor(m, lambda: m.registry.get(ALICE_OUT).owner) is None
        with ServiceClient(m.host, m.port, "alice", password="pw") as alice:
            assert alice.fetch(SHARED) == b"shared reference"
            assert alice.fetch(ALICE_OWN) == b"alice's own bytes"
            with pytest.raises(ClientError, match="outside tenant 'alice'"):
                alice.fetch(BOB_OWN)
        with ServiceClient(m.host, m.port, "bob", password="pw") as bob:
            assert bob.fetch(BOB_OWN) == b"bob's own bytes"
            with pytest.raises(ClientError, match="outside tenant 'bob'"):
                bob.fetch(ALICE_OWN)
    finally:
        m.close()


def test_a_memo_output_two_tenants_produce_stays_in_both_namespaces(tmp_path):
    """Alice's and bob's identical deterministic tasks name one memo
    output.  Live, its record's producer is alice's task; a restart
    restores the record under bob's, the later submit, and alice's
    ``tenant_name`` record is what keeps it in her namespace."""
    from repro.core.manager import Manager
    from repro.service.client import ServiceClient
    from tests.reactor_owner import on_reactor

    journal_dir = str(tmp_path / "journal")
    memo_dir = str(tmp_path / "memo")

    def namespaces(m, name):
        return on_reactor(
            m,
            lambda: sorted(
                t for t in ("alice", "bob") if m.control.in_namespace(t, name)
            ),
        )

    m = Manager(password="pw", journal_dir=journal_dir, memo_dir=memo_dir)
    try:
        with ServiceClient(m.host, m.port, "alice", password="pw") as alice, \
                ServiceClient(m.host, m.port, "bob", password="pw") as bob:
            ref = alice.declare_buffer(b"memo input")["cache_name"]
            bob.declare_buffer(b"memo input")
            names = [
                client.submit(
                    "cat in > out", inputs=[("in", ref)], outputs=["out"],
                    deterministic=True,
                )["outputs"]["out"]
                for client in (alice, bob)
            ]
        assert names[0] == names[1] and names[0].startswith("memo-md5-")
        name = names[0]
        assert namespaces(m, name) == ["alice", "bob"]
    finally:
        m.close()

    m = Manager(password="pw", journal_dir=journal_dir, memo_dir=memo_dir)
    try:
        assert namespaces(m, name) == ["alice", "bob"]
    finally:
        m.close()
