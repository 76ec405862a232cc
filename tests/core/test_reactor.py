"""The transport seam on its own: a Reactor over socketpairs, no manager.

Everything the manager relies on — per-peer FIFO order across frame,
bulk and file items, a stalled peer delaying nobody else, the deadline
heap, the two ways of stopping, and one ``peer_closed`` per peer however
its end is noticed — is checked here against a recording handler, with
no ControlPlane, Task or File in sight.
"""

import os
import socket
import struct
import threading
import time

import pytest

from repro.core.reactor import FileBody, Reactor
from repro.protocol.connection import encode_frame, listen


class Recorder:
    """A Handler that writes down what the loop hands over."""

    def __init__(self) -> None:
        self.messages: list = []
        self.closed: list = []
        self.sweeps = 0
        #: when set, before_write parks the loop until it is released
        self.hold = None
        self.holding = threading.Event()
        #: message type -> payload size to ask for
        self.announced: dict = {}

    def peer_message(self, peer, message, payload):
        if message.get("type") == "boom":
            raise ValueError("handler refused the frame")
        size = self.announced.get(message.get("type"))
        if payload is None and size is not None:
            peer.expect_payload(message, size)
            return
        self.messages.append((peer, message, payload))

    def peer_closed(self, peer, error):
        self.closed.append((peer, error))

    def before_write(self):
        if self.hold is not None:
            self.holding.set()
            self.hold.wait(10)

    def sweep_done(self, seconds):
        self.sweeps += 1


@pytest.fixture()
def loop():
    handler = Recorder()
    reactor = Reactor(listen(), handler)
    yield reactor, handler
    reactor.stop()
    reactor.join(5)
    assert not reactor.running


def _pair(reactor, sndbuf=None):
    """A peer adopted by the (not yet started) reactor and the far end."""
    near, far = socket.socketpair()
    if sndbuf is not None:
        near.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, sndbuf)
    far.settimeout(10)
    return reactor.adopt(near), far


def _wait(predicate, what, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


def _read_exact(sock, size, step):
    parts, left = [], size
    while left:
        chunk = sock.recv(min(step, left))
        assert chunk, f"EOF with {left} bytes outstanding"
        parts.append(chunk)
        left -= len(chunk)
    return b"".join(parts)


def test_a_slow_reader_gets_frame_bulk_and_file_items_in_issue_order(loop, tmp_path):
    reactor, _handler = loop
    peer, far = _pair(reactor, sndbuf=4096)  # every item is a partial write
    reactor.start()
    bulk = os.urandom(64 << 10)
    body = os.urandom(96 << 10)
    path = tmp_path / "body.bin"
    path.write_bytes(body)
    first = encode_frame({"type": "put", "size": len(bulk)})
    second = encode_frame({"type": "file", "size": len(body)})
    third = encode_frame({"type": "after"})
    peer.send(first, bulk)
    peer.send(second, FileBody(open(path, "rb"), len(body)))
    peer.send(third)
    expected = first + bulk + second + body + third
    assert reactor.queued_bytes > 0
    assert _read_exact(far, len(expected), step=1) == expected
    _wait(lambda: reactor.queued_bytes == 0, "the byte count to return to zero")
    far.close()


def test_a_peer_that_stops_reading_delays_nobody_else(loop):
    reactor, _handler = loop
    stalled, stalled_far = _pair(reactor, sndbuf=4096)
    lively, lively_far = _pair(reactor)
    reactor.start()
    backlog = bytes(8 << 20)
    stalled.send(backlog)  # nobody ever reads stalled_far
    frame = encode_frame({"type": "hello"})
    started = time.monotonic()
    lively.send(frame)
    assert _read_exact(lively_far, len(frame), step=4096) == frame
    assert time.monotonic() - started < 1.0
    # the stalled backlog is a number, not a thread parked in sendall
    assert 0 < reactor.queued_bytes <= len(backlog)
    stalled_far.close()
    lively_far.close()


def test_a_payload_announced_by_a_frame_is_delivered_with_it(loop):
    reactor, handler = loop
    handler.announced["data"] = 5
    peer, far = _pair(reactor)
    reactor.start()
    far.sendall(encode_frame({"type": "data"}) + b"12345" + encode_frame({"type": "next"}))
    _wait(lambda: len(handler.messages) == 2, "both messages")
    assert handler.messages[0] == (peer, {"type": "data"}, b"12345")
    assert handler.messages[1] == (peer, {"type": "next"}, None)
    far.close()


def test_timers_fire_in_deadline_order_and_cancelled_ones_never(loop):
    reactor, _handler = loop
    fired: list = []
    reactor.start()
    reactor.call_later(0.15, lambda: fired.append("third"))
    reactor.call_later(0.05, lambda: fired.append("first"))
    cancelled = reactor.call_later(0.07, lambda: fired.append("cancelled"))
    reactor.call_later(0.10, lambda: fired.append("second"))
    cancelled.cancel()
    ticks: list = []
    ticker = reactor.call_later(0.01, lambda: ticks.append(reactor.on_loop()), every=0.01)
    _wait(lambda: len(fired) == 3, "three timers")
    assert fired == ["first", "second", "third"]
    _wait(lambda: len(ticks) >= 3, "a repeating timer to repeat")
    assert all(ticks)  # callbacks run on the loop thread
    ticker.cancel()
    settled = len(ticks) + 1  # one may be mid-call
    time.sleep(0.05)
    assert len(ticks) <= settled


def test_no_timer_survives_the_loop(loop):
    reactor, _handler = loop
    fired: list = []
    reactor.start()
    reactor.call_later(0.2, lambda: fired.append("late"))
    reactor.call_later(60.0, lambda: fired.append("far"), every=60.0)
    reactor.stop()
    reactor.join(5)
    assert not reactor.running and reactor._deadlines == []
    time.sleep(0.3)
    assert fired == []


def test_a_timer_that_raises_does_not_end_the_loop(loop):
    reactor, _handler = loop
    fired: list = []
    reactor.start()
    reactor.call_later(0.0, lambda: 1 / 0)
    reactor.call_later(0.02, lambda: fired.append("after"))
    _wait(lambda: fired == ["after"], "the timer behind the bad one")
    assert reactor.running


def test_stop_with_a_deadline_writes_out_what_is_queued(loop):
    reactor, handler = loop
    peer, far = _pair(reactor, sndbuf=4096)
    reactor.start()
    data = os.urandom(1 << 20)
    peer.send(data)
    reactor.stop(drain=10.0)
    assert _read_exact(far, len(data), step=65536) == data
    assert far.recv(1) == b""  # then the connection is released
    reactor.join(5)
    assert not reactor.running and not reactor.peers
    assert handler.closed == []  # stopping reports no departures
    far.close()


def test_stop_gives_up_at_its_deadline(loop):
    reactor, _handler = loop
    peer, far = _pair(reactor, sndbuf=4096)
    reactor.start()
    peer.send(bytes(8 << 20))  # far never reads
    started = time.monotonic()
    reactor.stop(drain=0.3)
    reactor.join(5)
    assert not reactor.running
    assert 0.25 < time.monotonic() - started < 2.0
    far.close()


def test_stop_without_a_deadline_sends_nothing(loop):
    reactor, handler = loop
    peer, far = _pair(reactor)
    handler.hold = threading.Event()
    reactor.start()
    reactor.wake()
    assert handler.holding.wait(5)  # the loop is parked in before_write
    peer.send(encode_frame({"type": "never sent"}))
    reactor.stop()
    handler.hold.set()
    reactor.join(5)
    assert not reactor.running
    assert far.recv(4096) == b""  # EOF, and not one byte before it
    far.close()


def test_the_last_item_closes_the_peer_once_it_has_left(loop):
    reactor, handler = loop
    peer, far = _pair(reactor)
    reactor.start()
    reject = encode_frame({"type": "reject"})
    peer.send(reject, last=True)
    peer.send(encode_frame({"type": "too late"}))
    assert _read_exact(far, len(reject), step=4096) == reject
    assert far.recv(4096) == b""
    _wait(lambda: handler.closed == [(peer, None)], "the close to be reported")
    far.close()


@pytest.mark.parametrize("how", ["eof", "reset_under_a_write", "bad_frame", "handler", "asked"])
def test_every_way_a_peer_ends_is_reported_exactly_once(loop, how):
    reactor, handler = loop
    peer, far = _pair(reactor, sndbuf=4096)
    other, other_far = _pair(reactor)
    reactor.start()
    if how == "eof":
        far.close()
    elif how == "reset_under_a_write":
        peer.send(bytes(4 << 20))
        _wait(lambda: 0 < reactor.queued_bytes < 4 << 20, "a blocked write")
        far.close()
    elif how == "bad_frame":
        far.sendall(struct.pack(">I", 5) + b"{nope")
    elif how == "handler":
        far.sendall(encode_frame({"type": "boom"}))
    else:
        threading.Thread(target=peer.close).start()  # from another thread
    _wait(lambda: handler.closed, "the departure")
    time.sleep(0.05)
    assert [p for p, _e in handler.closed] == [peer]
    error = handler.closed[0][1]
    if how in ("eof", "asked"):
        assert error is None
    elif how != "reset_under_a_write":  # EOF or EPIPE, whichever is seen first
        assert isinstance(error, (OSError, ValueError))
    assert peer.closed and peer not in reactor.peers
    assert reactor.queued_bytes == 0  # what it was owed is written off
    # the loop and the other peer carry on
    other_far.sendall(encode_frame({"type": "still here"}))
    _wait(lambda: handler.messages, "a message from the surviving peer")
    assert handler.messages[-1][0] is other
    far.close()
    other_far.close()


def test_a_file_that_ends_short_closes_its_peer_with_the_reason(loop, tmp_path):
    reactor, handler = loop
    peer, far = _pair(reactor)
    reactor.start()
    path = tmp_path / "short.bin"
    path.write_bytes(b"x" * 100)
    peer.send(encode_frame({"type": "file", "size": 500}), FileBody(open(path, "rb"), 500))
    _wait(lambda: handler.closed, "the peer to be closed")
    (closed, error), = handler.closed
    assert closed is peer and "400 bytes short" in str(error)
    far.close()
