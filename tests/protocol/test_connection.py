"""Tests for socket framing and the wire message schema."""

import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol.connection import (
    IO_CHUNK,
    MAX_MESSAGE_SIZE,
    Connection,
    FrameReassembler,
    ProtocolError,
    encode_frame,
    listen,
)
from repro.protocol.messages import M, WireError, validate


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


def test_message_round_trip(conn_pair):
    client, server = conn_pair
    client.send_message({"type": "ack", "n": 42, "s": "héllo"})
    msg = server.recv_message()
    assert msg == {"type": "ack", "n": 42, "s": "héllo"}


def test_multiple_messages_in_order(conn_pair):
    client, server = conn_pair
    for i in range(20):
        client.send_message({"type": "ack", "i": i})
    for i in range(20):
        assert server.recv_message()["i"] == i


def test_bytes_after_message(conn_pair):
    client, server = conn_pair
    payload = bytes(range(256)) * 1000
    client.send_message({"type": "file_data", "size": len(payload)})
    client.send_bytes(payload)
    msg = server.recv_message()
    assert server.recv_bytes(msg["size"]) == payload


def test_file_streaming(conn_pair, tmp_path):
    client, server = conn_pair
    src = tmp_path / "src.bin"
    dst = tmp_path / "dst.bin"
    content = b"block" * 500_000  # 2.5 MB, crosses chunk boundaries
    src.write_bytes(content)
    client.send_message({"type": "file_data", "size": len(content)})
    sender = threading.Thread(target=client.send_file, args=(src, len(content)))
    sender.start()
    msg = server.recv_message()
    server.recv_to_file(dst, msg["size"])
    sender.join(timeout=10)
    assert dst.read_bytes() == content


def test_send_file_shorter_than_announced(conn_pair, tmp_path):
    client, _ = conn_pair
    short = tmp_path / "short.bin"
    short.write_bytes(b"123")
    with pytest.raises(ProtocolError):
        client.send_file(short, 10)


def test_eof_raises_protocol_error(conn_pair):
    client, server = conn_pair
    client.close()
    with pytest.raises(ProtocolError):
        server.recv_message()


def test_non_dict_message_rejected(conn_pair):
    client, server = conn_pair
    import json, struct

    payload = json.dumps([1, 2, 3]).encode()
    client.sock.sendall(struct.pack(">I", len(payload)) + payload)
    with pytest.raises(ProtocolError):
        server.recv_message()


def test_corrupt_json_rejected(conn_pair):
    client, server = conn_pair
    import struct

    client.sock.sendall(struct.pack(">I", 4) + b"{{{{")
    with pytest.raises(ProtocolError):
        server.recv_message()


# -- incremental reassembly (reactor receive path) ---------------------


def _frame_of_length(body_len: int) -> bytes:
    """A syntactically valid frame whose JSON body is exactly body_len."""
    pad = body_len - len('{"type":"ack","p":""}')
    assert pad >= 0
    return encode_frame({"type": "ack", "p": "x" * pad})


def _chunks(blob: bytes, cuts: list[int]):
    """Split a byte string at the given (sorted, in-range) positions."""
    points = sorted({min(c, len(blob)) for c in cuts})
    prev = 0
    out = []
    for p in points:
        out.append(blob[prev:p])
        prev = p
    out.append(blob[prev:])
    # an empty feed() means EOF, so empty segments must not be fed
    return [c for c in out if c]


_MESSAGES = st.lists(
    st.fixed_dictionaries(
        {"type": st.just("ack"), "i": st.integers(0, 2**31)},
        optional={"s": st.text(max_size=20)},
    ),
    min_size=1,
    max_size=10,
)


@settings(deadline=None, max_examples=60)
@given(messages=_MESSAGES, data=st.data())
def test_fuzz_reassembly_survives_arbitrary_splits(messages, data):
    """Any split of the byte stream yields the same messages in order."""
    blob = b"".join(encode_frame(m) for m in messages)
    cuts = data.draw(st.lists(st.integers(0, len(blob)), max_size=20))
    frames = FrameReassembler()
    received = []
    for chunk in _chunks(blob, cuts):
        frames.feed(chunk)
        while (item := frames.next_item()) is not None:
            received.append(item)
    frames.feed(b"")
    assert frames.next_item() is None  # clean EOF: iteration just ends
    assert received == [("msg", m) for m in messages]


@settings(deadline=None, max_examples=20)
@given(offset=st.integers(-3, 3))
def test_fuzz_frame_straddling_io_chunk(offset):
    """Frames near the IO_CHUNK read size reassemble from chunked reads."""
    frame = _frame_of_length(IO_CHUNK + offset)
    blob = frame + encode_frame({"type": "ack", "tail": 1})
    frames = FrameReassembler()
    received = []
    for start in range(0, len(blob), IO_CHUNK):  # reads of exactly IO_CHUNK
        frames.feed(blob[start : start + IO_CHUNK])
        while (item := frames.next_item()) is not None:
            received.append(item)
    assert len(received) == 2
    assert received[0][1]["p"] == "x" * (IO_CHUNK + offset - len('{"type":"ack","p":""}'))
    assert received[1][1] == {"type": "ack", "tail": 1}


@settings(deadline=None, max_examples=40)
@given(
    announced=st.integers(1, 4096),
    delivered_frac=st.floats(0.0, 1.0, exclude_max=True),
)
def test_fuzz_truncated_eof_mid_bulk_stream(announced, delivered_frac):
    """EOF with a bulk payload outstanding raises, whatever arrived."""
    frames = FrameReassembler()
    frames.feed(encode_frame({"type": "file_data", "size": announced}))
    assert frames.next_item()[0] == "msg"
    frames.expect_bytes(announced)
    delivered = int(announced * delivered_frac)
    if delivered:  # feed(b"") would mean EOF, which comes below
        frames.feed(b"\0" * delivered)
    assert frames.next_item() is None  # still waiting on the remainder
    frames.feed(b"")
    with pytest.raises(ProtocolError, match="mid-bulk payload"):
        frames.next_item()


@pytest.mark.parametrize("cut", ["header", "body"])
def test_truncated_eof_mid_frame(cut):
    frame = encode_frame({"type": "ack", "n": 7})
    frames = FrameReassembler()
    frames.feed(frame[:2] if cut == "header" else frame[:-1])
    assert frames.next_item() is None
    frames.feed(b"")
    with pytest.raises(ProtocolError, match="mid-frame"):
        frames.next_item()


def test_oversized_frame_rejected_at_exact_limit():
    """MAX_MESSAGE_SIZE is accepted; one byte more is refused up front."""
    over = FrameReassembler()
    over.feed(struct.pack(">I", MAX_MESSAGE_SIZE + 1))
    with pytest.raises(ProtocolError, match="too large"):
        over.next_item()
    at_limit = FrameReassembler()
    at_limit.feed(struct.pack(">I", MAX_MESSAGE_SIZE))
    assert at_limit.next_item() is None  # legal: waiting for the body


@pytest.mark.parametrize("body_len,ok", [(128, True), (129, False)])
def test_frame_size_limit_boundary_full_frames(body_len, ok):
    """±1 around the limit with real frames (shrunk limit, same code path)."""
    frames = FrameReassembler(max_message_size=128)
    frames.feed(_frame_of_length(body_len))
    if ok:
        kind, msg = frames.next_item()
        assert kind == "msg" and len(msg["p"]) == body_len - len('{"type":"ack","p":""}')
    else:
        with pytest.raises(ProtocolError, match="too large"):
            frames.next_item()


def test_bulk_mode_interleaves_with_frames():
    """msg → bytes → msg in one buffer, pulled in strict wire order."""
    frames = FrameReassembler()
    payload = bytes(range(256))
    frames.feed(
        encode_frame({"type": "file_data", "size": len(payload)})
        + payload
        + encode_frame({"type": "ack"})
    )
    kind, msg = frames.next_item()
    assert kind == "msg"
    frames.expect_bytes(msg["size"])
    assert frames.next_item() == ("bytes", payload)
    assert frames.next_item() == ("msg", {"type": "ack"})


def test_expect_bytes_guards():
    frames = FrameReassembler()
    frames.expect_bytes(3)
    with pytest.raises(ProtocolError):
        frames.expect_bytes(1)  # already in bulk mode
    frames.feed(b"abc")
    assert frames.next_item() == ("bytes", b"abc")
    with pytest.raises(ProtocolError):
        frames.expect_bytes(-1)


# -- schema ------------------------------------------------------------


def test_validate_accepts_complete_message():
    assert validate({"type": M.CACHE_UPDATE, "cache_name": "x", "size": 1}) == M.CACHE_UPDATE


def test_validate_rejects_unknown_type():
    with pytest.raises(WireError):
        validate({"type": "nonsense"})
    with pytest.raises(WireError):
        validate({})


def test_validate_reports_missing_fields():
    with pytest.raises(WireError, match="cache_name"):
        validate({"type": M.PUT_FILE, "size": 1, "level": 1})


def test_validate_rejects_task_done_with_result_rider():
    """Results travel by reference: a stale worker announcing trailing
    result bytes is refused by name before it can desynchronise framing
    (even a zero-length announcement marks a stale peer)."""
    done = {"type": M.TASK_DONE, "task_id": "t1", "exit_code": 0}
    assert validate(done) == M.TASK_DONE
    for size in (8, 0):
        with pytest.raises(WireError, match="result_size"):
            validate({**done, "result_size": size})


def test_all_schema_types_validate_with_required_fields():
    from repro.protocol.messages import _SCHEMA

    for mtype, fields in _SCHEMA.items():
        msg = {"type": mtype, **{f: "x" for f in fields}}
        assert validate(msg) == mtype
