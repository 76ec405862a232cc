"""Batch-envelope semantics and :class:`BatchSender` wire behaviour.

The load-bearing invariants, each pinned here:

* the receiver unwraps a ``batch`` frame into the same messages, in
  the same order, the sender queued;
* a worker's announcement of an object (``cache_update``, or the
  ``task_done`` listing it) → ``cache_invalid`` of its eviction
  ordering survives any interleaving of queued notices and direct
  sends (FIFO sender);
* a lone notice travels as a bare frame, byte-identical to the
  unbatched protocol;
* envelopes never nest and never carry messages that announce
  trailing bulk bytes.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol.batching import BatchSender
from repro.protocol.connection import Connection, FrameReassembler, encode_frame, listen
from repro.protocol.messages import M, WireError, validate, validate_batch


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


def test_lone_notice_is_a_bare_frame(conn_pair):
    """A window with one notice stays byte-identical to the old wire."""
    client, server = conn_pair
    sender = BatchSender(client, max_delay=0.001)
    sender.notice(_notice(7))
    msg = server.recv_message()
    assert msg == _notice(7)  # no envelope
    sender.close()


def test_full_window_flushes_without_deadline(conn_pair):
    client, server = conn_pair
    # deadline far away: only the size trigger can flush this fast
    sender = BatchSender(client, max_batch=4, max_delay=30.0)
    for i in range(4):
        sender.notice(_notice(i))
    msg = server.recv_message()
    assert msg["type"] == M.BATCH
    assert validate_batch(msg) == [_notice(i) for i in range(4)]
    sender.close()


def test_deadline_flushes_partial_window(conn_pair):
    client, server = conn_pair
    sender = BatchSender(client, max_batch=1000, max_delay=0.005)
    for i in range(3):
        sender.notice(_notice(i))
    msg = server.recv_message()  # arrives ~max_delay later, one envelope
    assert validate_batch(msg) == [_notice(i) for i in range(3)]
    sender.close()


def test_direct_send_flushes_queue_first(conn_pair):
    client, server = conn_pair
    sender = BatchSender(client, max_batch=1000, max_delay=30.0)
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
    sender = BatchSender(client, max_batch=1000, max_delay=30.0)
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
    sender = BatchSender(client, max_batch=1000, max_delay=30.0)
    sender.notice(_notice(1))
    sender.notice(_notice(2))
    sender.close()
    msg = server.recv_message()
    assert validate_batch(msg) == [_notice(1), _notice(2)]


@settings(deadline=None, max_examples=30)
@given(
    plan=st.lists(st.booleans(), min_size=1, max_size=30),
    max_batch=st.integers(1, 8),
)
def test_fuzz_fifo_order_preserved_across_flush_patterns(plan, max_batch):
    """Notices and direct sends arrive in exact call order, any window.

    True booleans are queued notices, False are direct sends — the
    receiver must observe the identical sequence after unwrapping
    envelopes, whatever the batch size triggers in between.
    """
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
        sender = BatchSender(client, max_batch=max_batch, max_delay=30.0)
        sent = []
        for i, queued in enumerate(plan):
            if queued:
                sender.notice(_notice(i))
                sent.append(_notice(i))
            else:
                direct = {"type": M.TASK_DONE, "task_id": f"t{i}", "exit_code": 0}
                sender.send(direct)
                sent.append(direct)
        sender.close()
        received = []
        while len(received) < len(sent):
            received.extend(_unwrap(server.recv_message()))
        assert received == sent
    finally:
        client.close()
        server.close()
        server_sock.close()
