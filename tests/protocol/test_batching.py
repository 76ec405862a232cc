"""Batch-envelope semantics and :class:`BatchSender` wire behaviour.

The load-bearing invariants, each pinned here:

* the receiver unwraps a ``batch`` frame into the same messages, in
  the same order, the sender queued;
* a worker's announcement of an object (``cache_update``, or the
  ``task_done`` listing it) → ``cache_invalid`` of its eviction
  ordering survives any interleaving of queued notices and direct
  sends (FIFO sender);
* a lone notice travels as a bare frame, byte-identical to the
  unbatched protocol, and the scripted worker's replies to one inbound
  read leave together;
* envelopes never nest and never carry messages that announce
  trailing bulk bytes.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol.batching import MAX_BATCH, BatchSender
from repro.protocol.connection import Connection, FrameReassembler, encode_frame, listen
from repro.protocol.messages import M, WireError, validate, validate_batch
from repro.worker.scripted import ScriptedWorker


@pytest.fixture()
def conn_pair():
    """A connected (client, server) Connection pair over localhost."""
    server_sock = listen()
    host, port = server_sock.getsockname()
    result = {}

    def accept():
        s, _ = server_sock.accept()
        result["server"] = Connection(s)

    t = threading.Thread(target=accept)
    t.start()
    client = Connection.connect(host, port)
    t.join(timeout=5)
    server = result["server"]
    yield client, server
    client.close()
    server.close()
    server_sock.close()


def _notice(i):
    return {"type": M.CACHE_UPDATE, "cache_name": f"f{i}", "size": i + 1}


def _unwrap(msg):
    """Flatten a received frame into its logical messages."""
    return validate_batch(msg) if msg.get("type") == M.BATCH else [msg]


# -- envelope round-trip -----------------------------------------------


@settings(deadline=None, max_examples=60)
@given(
    notices=st.lists(
        st.builds(_notice, st.integers(0, 1000)), min_size=2, max_size=50
    )
)
def test_fuzz_batch_envelope_round_trip(notices):
    """encode → reassemble → validate_batch reproduces the sub-messages."""
    frames = FrameReassembler()
    frames.feed(encode_frame({"type": M.BATCH, "messages": notices}))
    kind, msg = frames.next_item()
    assert kind == "msg"
    assert validate(msg) == M.BATCH
    assert validate_batch(msg) == notices


def test_batch_envelope_rejects_nesting_and_bulk_riders():
    inner = {"type": M.BATCH, "messages": [_notice(0)]}
    with pytest.raises(WireError, match="nest"):
        validate_batch({"type": M.BATCH, "messages": [inner]})
    with pytest.raises(WireError, match="non-empty"):
        validate_batch({"type": M.BATCH, "messages": []})
    bulk = {"type": M.FILE_DATA, "cache_name": "x", "found": True, "size": 3}
    with pytest.raises(WireError, match="file_data"):
        validate_batch({"type": M.BATCH, "messages": [bulk]})
    done = {"type": M.TASK_DONE, "task_id": "t", "exit_code": 0, "result_size": 8}
    with pytest.raises(WireError, match="task_done"):
        validate_batch({"type": M.BATCH, "messages": [done]})


# -- BatchSender wire behaviour ----------------------------------------


def test_a_sender_starts_no_thread(conn_pair):
    client, _ = conn_pair
    before = set(threading.enumerate())
    sender = BatchSender(client)
    sender.notice(_notice(0))
    assert set(threading.enumerate()) == before
    sender.close()


def test_lone_notice_is_a_bare_frame(conn_pair):
    """A flush of one notice stays byte-identical to the old wire."""
    client, server = conn_pair
    sender = BatchSender(client)
    sender.notice(_notice(7))
    sender.flush()
    msg = server.recv_message()
    assert msg == _notice(7)  # no envelope
    sender.close()


def test_a_full_queue_goes_out_without_a_flush(conn_pair):
    client, server = conn_pair
    sender = BatchSender(client)
    for i in range(MAX_BATCH):
        sender.notice(_notice(i))
    msg = server.recv_message()
    assert validate_batch(msg) == [_notice(i) for i in range(MAX_BATCH)]
    sender.close()


def test_direct_send_flushes_queue_first(conn_pair):
    client, server = conn_pair
    sender = BatchSender(client)
    for i in range(3):
        sender.notice(_notice(i))
    done = {"type": M.TASK_DONE, "task_id": "t1", "exit_code": 0}
    sender.send(done)
    first = server.recv_message()
    assert validate_batch(first) == [_notice(i) for i in range(3)]
    assert server.recv_message() == done
    sender.close()


def test_send_with_payload_keeps_bulk_contiguous(conn_pair):
    client, server = conn_pair
    sender = BatchSender(client)
    sender.notice(_notice(0))
    blob = b"object-bytes"
    sender.send(
        {"type": M.FILE_DATA, "cache_name": "x", "found": True,
         "size": len(blob)},
        blob,
    )
    assert server.recv_message() == _notice(0)  # flushed ahead, bare
    msg = server.recv_message()
    assert server.recv_bytes(msg["size"]) == blob
    sender.close()


def test_close_flushes_remaining_notices(conn_pair):
    client, server = conn_pair
    sender = BatchSender(client)
    sender.notice(_notice(1))
    sender.notice(_notice(2))
    sender.close()
    msg = server.recv_message()
    assert validate_batch(msg) == [_notice(1), _notice(2)]


@settings(deadline=None, max_examples=30)
@given(plan=st.lists(st.sampled_from(["notice", "send", "flush"]), min_size=1, max_size=30))
def test_fuzz_fifo_order_preserved_across_flush_patterns(plan):
    """Notices and direct sends arrive in exact call order, whatever
    flushes come between them: the receiver must observe the identical
    sequence after unwrapping envelopes."""
    server_sock = listen()
    host, port = server_sock.getsockname()
    result = {}

    def accept():
        s, _ = server_sock.accept()
        result["server"] = Connection(s)

    t = threading.Thread(target=accept)
    t.start()
    client = Connection.connect(host, port)
    t.join(timeout=5)
    server = result["server"]
    try:
        sender = BatchSender(client)
        sent = []
        for i, step in enumerate(plan):
            if step == "notice":
                sender.notice(_notice(i))
                sent.append(_notice(i))
            elif step == "send":
                direct = {"type": M.TASK_DONE, "task_id": f"t{i}", "exit_code": 0}
                sender.send(direct)
                sent.append(direct)
            else:
                sender.flush()
        sender.close()
        received = []
        while len(received) < len(sent):
            received.extend(_unwrap(server.recv_message()))
        assert received == sent
    finally:
        client.close()
        server.close()
        server_sock.close()


# -- coalescing by read: the scripted worker ----------------------------


def _execute(i):
    return {
        "type": M.EXECUTE, "task_id": f"t{i}", "command": "noop",
        "inputs": [], "outputs": [["out", f"out-{i}", 1]],
        "env": {}, "resources": {"cores": 1},
    }


@pytest.fixture()
def scripted():
    """A ScriptedWorker and the manager side of its registered connection."""
    listener = listen()
    worker = ScriptedWorker(*listener.getsockname())
    sock, _ = listener.accept()
    listener.close()
    manager = Connection(sock)
    assert manager.recv_message()["type"] == M.REGISTER
    yield worker, manager
    worker.close()
    manager.close()


def test_the_replies_to_one_read_leave_as_one_batch(scripted):
    worker, manager = scripted
    manager.send_frame(b"".join(encode_frame(_execute(i)) for i in range(8)))
    msg = manager.recv_message()
    assert [m["task_id"] for m in validate_batch(msg)] == [f"t{i}" for i in range(8)]
    assert {m["type"] for m in msg["messages"]} == {M.TASK_DONE}


def test_a_lone_execute_is_answered_by_a_bare_frame(scripted):
    worker, manager = scripted
    manager.send_message(_execute(0))
    msg = manager.recv_message()
    assert msg["type"] == M.TASK_DONE and msg["task_id"] == "t0"
    assert msg["outputs"] == [["out-0", 1]]
