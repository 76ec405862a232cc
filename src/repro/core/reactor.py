"""The manager's transport: one loop owns every socket and every clock.

A :class:`Reactor` is one thread around one ``selectors`` selector.  It
accepts connections, reassembles inbound frames
(:class:`~repro.protocol.connection.FrameReassembler`), drains one FIFO
of outbound items per peer with non-blocking sends, and runs one
deadline heap whose head is the ``select`` timeout.  What a frame
*means* is not known here: complete messages, closed peers and the two
sweep boundaries are handed to a :class:`Handler`, and this module
imports nothing of tasks, files, libraries or the control plane.

Only the loop thread reads, writes, accepts or closes a socket, or calls
:meth:`Peer.send` and :meth:`Peer.close`, so every FIFO and the deadline
heap have one owner and no lock.  Another thread reaches the loop
through its one inbox, :meth:`Reactor.post`: a deque append, plus a wake
byte for the first post since the loop last drained it.
:meth:`Reactor.call_later` and :meth:`Reactor.stop` post themselves when
called off the loop.

One sweep of the loop is: read what is readable and hand it over, run
the timers that are due, close the peers asked to close, apply the
inbox, :meth:`Handler.before_write`, write what every non-empty FIFO's
socket will take, :meth:`Handler.sweep_done`.  Every handler call but
the last precedes the sweep's writes, so what the loop thread queues
during a sweep leaves in that sweep, coalesced into one ``send`` per
peer.  The loop never wakes itself: a post it makes, like a close it
owes, just makes the next ``select`` return at once.
"""

from __future__ import annotations

import collections
import contextlib
import heapq
import itertools
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Optional, Protocol

from repro.protocol.connection import IO_CHUNK, FrameReassembler, ProtocolError
from repro.util.logging import get_logger

__all__ = ["FileBody", "Handler", "Peer", "Reactor", "Timer"]

log = get_logger(__name__)

#: reads taken from one readable peer before the loop moves on (the
#: selector is level-triggered, so leftover bytes re-report readiness)
_READS_PER_SWEEP = 64

#: bytes written to one peer per sweep before the loop moves on, so a
#: large push shares the loop with every other peer's frames
_WRITE_BUDGET = 4 * IO_CHUNK


class Handler(Protocol):
    """What the loop hands over.  Every method runs on the loop thread."""

    def peer_message(
        self, peer: "Peer", message: dict, payload: Optional[bytes]
    ) -> None:
        """One decoded frame (``payload`` None), or — after the first
        delivery answered with :meth:`Peer.expect_payload` — the same
        message again with the bytes that followed it.  ``OSError`` and
        ``ValueError`` (so ``ProtocolError``, ``WireError``) close the
        peer."""

    def peer_closed(self, peer: "Peer", error: Optional[Exception]) -> None:
        """``peer`` is gone — EOF, a read or write error, a source file
        that failed mid-stream, or :meth:`Peer.close`.  Called exactly
        once per peer while the loop runs; :meth:`Reactor.stop` closes
        the rest without a call."""

    def before_write(self) -> None:
        """Reads, timers and closes of this sweep are done; the writes
        follow.  The place for work owed once per sweep and for making
        durable whatever the queued frames must not outrun."""

    def sweep_done(self, seconds: float) -> None:
        """The sweep's writes are done.  Must not send."""


class FileBody:
    """An outbound item streamed from an open file: exactly ``size``
    bytes from its current position.  The reactor closes ``fh``."""

    __slots__ = ("fh", "remaining")

    def __init__(self, fh: BinaryIO, size: int) -> None:
        self.fh = fh
        self.remaining = size


@dataclass(order=True)
class Timer:
    """Handle of one :meth:`Reactor.call_later` deadline; heap order is
    (``when``, order of arrival)."""

    when: float
    seq: int
    fn: Callable[[], None] = field(compare=False)
    every: Optional[float] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """The callback will not run (again).  Safe from any thread."""
        self.cancelled = True


class Peer:
    """One connected socket: inbound reassembly and the outbound FIFO."""

    __slots__ = (
        "sock", "owner", "closed", "_reactor", "_frames", "_awaiting",
        "_fifo", "_head", "_blocked", "_mask", "_doomed", "_last",
    )

    def __init__(self, reactor: "Reactor", sock: socket.socket) -> None:
        self.sock = sock
        #: the handler's own record for this peer (None until it says)
        self.owner = None
        self.closed = False
        self._reactor = reactor
        self._frames = FrameReassembler()
        self._awaiting: Optional[dict] = None
        self._fifo: collections.deque = collections.deque()
        #: unsent rest of the chunk being written
        self._head: Optional[memoryview] = None
        #: the socket took less than offered; wait for EVENT_WRITE
        self._blocked = False
        self._mask = selectors.EVENT_READ
        self._doomed = False
        #: nothing may be queued behind the current tail; close once it left
        self._last = False

    def send(self, *items: "bytes | FileBody", last: bool = False) -> None:
        """Append ``items`` to the FIFO as one unit (loop thread).

        ``last`` closes the peer once they have left, and what it sends
        meanwhile is discarded.  Items for a peer that is closed or
        closing are dropped.
        """
        self._reactor._enqueue(self, items, last)

    def expect_payload(self, message: dict, size: int) -> None:
        """The next ``size`` bytes on the wire belong to ``message``:
        deliver it again with them (loop thread, from ``peer_message``)."""
        self._frames.expect_bytes(size)
        self._awaiting = message

    def close(self) -> None:
        """Drop the connection now, unsent items included (loop thread);
        ``peer_closed`` follows in the next sweep."""
        self._reactor._doom(self)


class Reactor:
    """The loop.  ``listener`` is a bound, listening socket the reactor
    takes over; :meth:`start` runs the thread, :meth:`stop` ends it."""

    def __init__(self, listener: socket.socket, handler: Handler) -> None:
        self._listener = listener
        self._handler = handler
        self._sel = selectors.DefaultSelector()
        # self-pipe: lets a post interrupt a pending select().  The
        # write end never blocks: a full pipe means a wake is pending.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        listener.setblocking(False)
        self._sel.register(listener, selectors.EVENT_READ, None)
        self._sel.register(self._wake_r, selectors.EVENT_READ, None)
        #: commands (a callable and its arguments) posted for the loop
        self._inbox: collections.deque = collections.deque()
        #: a wake byte is owed to no post: lowered just before a drain
        self._woken = False
        #: the loop made its last drain; a post is applied by its poster
        self._ended = False
        self.peers: set[Peer] = set()
        #: peers with something to write
        self._dirty: set[Peer] = set()
        #: peers to close on the next sweep, each with the error (or
        #: None) its ``peer_closed`` will carry
        self._doomed: list[tuple] = []
        self._deadlines: list[Timer] = []
        self._seq = itertools.count()
        #: bytes queued on every FIFO together and not yet written
        self.queued_bytes = 0
        self._stopping = False
        self._drain_deadline: Optional[float] = None
        self.thread = threading.Thread(
            target=self._run, name="manager-reactor", daemon=True
        )
        #: the loop thread's id while it runs (what :meth:`on_loop` tests)
        self._loop_ident: Optional[int] = None

    # -- any thread --------------------------------------------------------

    @property
    def running(self) -> bool:
        return self.thread.is_alive()

    def on_loop(self) -> bool:
        return threading.get_ident() == self._loop_ident

    def start(self) -> None:
        self.thread.start()

    def post(self, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` on the loop, after every earlier post (any
        thread).  It runs in the next sweep, before ``before_write``;
        once the loop has made its last drain, it runs here and now."""
        self._inbox.append((fn, args))
        if self._ended:
            self._apply_posts()
        elif not (self._woken or threading.get_ident() == self._loop_ident):
            self._woken = True
            self._wake()

    def call_later(
        self, delay: float, fn: Callable[[], None], every: Optional[float] = None
    ) -> Timer:
        """Run ``fn`` on the loop ``delay`` seconds from now, and then
        every ``every`` seconds if given, until cancelled or the loop
        stops (any thread)."""
        timer = Timer(time.monotonic() + max(0.0, delay), next(self._seq), fn, every)
        if self.on_loop():
            heapq.heappush(self._deadlines, timer)
        else:
            self.post(heapq.heappush, self._deadlines, timer)
        return timer

    def stop(self, drain: Optional[float] = None) -> None:
        """Ask the loop to exit (any thread); pair with :meth:`join`.

        With ``drain`` it first writes out every FIFO, giving up on
        whatever has not left after that many seconds in total; with
        None nothing more is sent.  Either way the sweep in progress is
        cut short — nothing further is read, handed over, timed or
        reported closed — and every socket, the listener and every
        timer are released by the time the thread ends.
        """
        if not self.on_loop():
            if not self._ended:  # (after its end the loop is stopped)
                self.post(self.stop, drain)
            return
        if drain is not None:
            self._drain_deadline = time.monotonic() + drain
        self._stopping = True

    def join(self, timeout: Optional[float] = None) -> None:
        self.thread.join(timeout)

    def _wake(self) -> None:
        # a full pipe means a wake is pending; a closed one, the loop ended
        with contextlib.suppress(OSError):
            self._wake_w.send(b"\0")

    # -- the loop ----------------------------------------------------------

    def _enqueue(self, peer: Peer, items: tuple, last: bool) -> None:
        if peer.closed or peer._doomed or peer._last:
            _discard(items)
            return
        for item in items:
            peer._fifo.append(item)
            self.queued_bytes += _size(item)
        peer._last = last
        self._dirty.add(peer)

    def _doom(self, peer: Peer, error: Optional[Exception] = None) -> None:
        if not (peer.closed or peer._doomed):
            peer._doomed = True
            self._doomed.append((peer, error))

    def adopt(self, sock: socket.socket) -> Peer:
        """Take over a connected socket (loop thread, or before
        :meth:`start`)."""
        sock.setblocking(False)
        peer = Peer(self, sock)
        self.peers.add(peer)
        self._sel.register(sock, peer._mask, peer)
        return peer

    def _run(self) -> None:
        self._loop_ident = threading.get_ident()
        try:
            while not self._stopping:
                self._sweep(self._sel.select(self._timeout()))
            self._drain()
        finally:
            try:
                self._release()
            finally:
                self._ended = True  # a later post is applied by its poster
                self._apply_posts()
                self._loop_ident = None  # a later thread may get the same id

    def _timeout(self) -> Optional[float]:
        if self._inbox or self._doomed or not all(p._blocked for p in self._dirty):
            return 0.0  # a post or a close is owed, or a peer has more to write
        timers = self._deadlines
        while timers and timers[0].cancelled:
            heapq.heappop(timers)
        if timers:
            return max(0.0, timers[0].when - time.monotonic())
        return None

    def _sweep(self, events) -> None:
        started = time.monotonic()
        for key, mask in events:
            if self._stopping:
                return
            peer = key.data
            if peer is None:
                if key.fileobj is self._listener:
                    self._accept()
                else:
                    with contextlib.suppress(OSError):
                        self._wake_r.recv(4096)
                continue
            if mask & selectors.EVENT_WRITE:
                peer._blocked = False
            if mask & selectors.EVENT_READ and not peer.closed:
                self._read(peer)
        if self._stopping:
            return
        self._run_timers()
        doomed, self._doomed = self._doomed, []
        for peer, error in doomed:
            self._close(peer, error)
        # lowered before the drain: a post it misses wakes the loop again
        self._woken = False
        self._apply_posts()
        self._handler.before_write()
        if self._stopping:
            return  # stop() decides whether what is queued still leaves
        for peer, error in self._write_step():
            # closed at the head of the next sweep, where whatever its
            # departure causes still has a before_write in front of it
            self._doom(peer, error)
        self._handler.sweep_done(time.monotonic() - started)

    def _accept(self) -> None:
        try:
            sock, _addr = self._listener.accept()
        except OSError:
            return
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.adopt(sock)

    def _read(self, peer: Peer) -> None:
        """Drain one readable peer (bounded, then back to select)."""
        try:
            for _ in range(_READS_PER_SWEEP):
                try:
                    data = peer.sock.recv(IO_CHUNK)
                except (BlockingIOError, InterruptedError):
                    return
                if not peer._last:  # a peer being closed is not listened to
                    peer._frames.feed(data)
                    self._hand_over(peer)
                if not data:
                    self._close(peer, None)
                    return
                if len(data) < IO_CHUNK:
                    # short read: the socket is almost surely drained —
                    # skip the would-be-EAGAIN recv
                    return
        except (OSError, ValueError) as exc:
            self._close(peer, exc)

    def _hand_over(self, peer: Peer) -> None:
        """Every complete item the reassembler can yield, in wire order."""
        deliver = self._handler.peer_message
        while not (peer._doomed or peer._last or self._stopping):
            item = peer._frames.next_item()
            if item is None:
                return
            kind, value = item
            if kind == "bytes":
                message, peer._awaiting = peer._awaiting, None
                deliver(peer, message, value)
            else:
                deliver(peer, value, None)

    def _run_timers(self) -> None:
        now = time.monotonic()
        due = []
        timers = self._deadlines
        while timers and timers[0].when <= now:
            timer = heapq.heappop(timers)
            if not timer.cancelled:
                due.append(timer)
        for timer in due:
            try:
                timer.fn()
            except Exception:  # noqa: BLE001 - one bad callback must not end the loop
                log.exception("timer callback %r failed", timer.fn)
            if timer.every is not None and not timer.cancelled:
                timer.when = time.monotonic() + timer.every
                heapq.heappush(timers, timer)

    def _apply_posts(self) -> None:
        """Apply every posted command, in order."""
        inbox = self._inbox
        while inbox:
            fn, args = inbox.popleft()
            try:
                fn(*args)
            except Exception:  # noqa: BLE001 - one bad command must not end the loop
                log.exception("posted command %r failed", fn)

    def _close(self, peer: Peer, error: Optional[Exception]) -> None:
        if peer.closed:
            return
        self._release_peer(peer)
        self._handler.peer_closed(peer, error)

    def _release_peer(self, peer: Peer) -> None:
        peer.closed = True
        self._dirty.discard(peer)
        unsent, peer._fifo = peer._fifo, collections.deque()
        self.queued_bytes -= sum(map(_size, unsent)) + len(peer._head or b"")
        _discard(unsent)
        peer._head = None
        self.peers.discard(peer)
        with contextlib.suppress(KeyError, ValueError):
            self._sel.unregister(peer.sock)
        with contextlib.suppress(OSError):
            peer.sock.shutdown(socket.SHUT_RDWR)
        peer.sock.close()

    # -- the write step ----------------------------------------------------

    def _write_step(self) -> list:
        """Offer every non-empty FIFO to its socket; returns the peers
        whose write failed, each with its error."""
        ready = [p for p in self._dirty if not p._blocked]
        failed = []
        for peer in ready:
            try:
                self._flush(peer)
            except OSError as exc:
                failed.append((peer, exc))
                continue
            if peer._head is None and not peer._fifo:
                self._dirty.discard(peer)
                if peer._last:
                    self._doom(peer)
            self._watch(peer)
        return failed

    def _flush(self, peer: Peer) -> None:
        """Write what the socket takes of ``peer``'s FIFO, in order."""
        written = 0
        try:
            while written < _WRITE_BUDGET:
                view = peer._head
                if view is None:
                    view = self._next_chunk(peer)
                    if view is None:
                        return
                try:
                    sent = self._write(peer.sock, view)
                except (BlockingIOError, InterruptedError):
                    sent = 0
                written += sent
                if sent < len(view):
                    peer._head = view[sent:]
                    peer._blocked = True
                    return
                peer._head = None
        finally:
            self.queued_bytes -= written

    @staticmethod
    def _write(sock: socket.socket, data: memoryview) -> int:
        """The one place bytes reach a socket."""
        return sock.send(data)

    @staticmethod
    def _next_chunk(peer: Peer) -> Optional[memoryview]:
        """Pop the next bytes to write: a run of small items joined
        into one send, one large item as it is, or one read of a file."""
        fifo = peer._fifo
        if not fifo:
            return None
        item = fifo[0]
        if isinstance(item, FileBody):
            chunk = item.fh.read(min(IO_CHUNK, item.remaining))
            if not chunk and item.remaining:
                raise ProtocolError(
                    f"{getattr(item.fh, 'name', 'file')} ended "
                    f"{item.remaining} bytes short of its announced size"
                )
            item.remaining -= len(chunk)
            if not item.remaining:
                fifo.popleft()
                item.fh.close()
            return memoryview(chunk)
        fifo.popleft()
        size = len(item)
        if size < IO_CHUNK:
            run = [item]
            while fifo and type(fifo[0]) is bytes and size + len(fifo[0]) <= IO_CHUNK:
                run.append(fifo.popleft())
                size += len(run[-1])
            if len(run) > 1:
                item = b"".join(run)
        return memoryview(item)

    def _watch(self, peer: Peer) -> None:
        """EVENT_WRITE is registered only while the socket is full."""
        mask = selectors.EVENT_READ
        if peer._blocked:
            mask |= selectors.EVENT_WRITE
        if mask != peer._mask and not peer.closed:
            peer._mask = mask
            self._sel.modify(peer.sock, mask, peer)

    # -- stopping ----------------------------------------------------------

    def _drain(self) -> None:
        """``stop(drain=...)``: nothing is read or handed over any more;
        write out the FIFOs until they are empty or the deadline."""
        deadline = self._drain_deadline
        while deadline is not None and time.monotonic() < deadline:
            for peer, _error in self._write_step():
                self._release_peer(peer)
            if not self._dirty:
                return
            full = [p for p in self._dirty if p._blocked]
            if len(full) == len(self._dirty):  # wait for a full socket to take more
                with selectors.DefaultSelector() as writable:
                    for peer in full:
                        writable.register(peer.sock, selectors.EVENT_WRITE, peer)
                    for key, _mask in writable.select(deadline - time.monotonic()):
                        key.data._blocked = False

    def _release(self) -> None:
        for peer in list(self.peers):
            self._release_peer(peer)
        self._deadlines.clear()
        self._doomed.clear()
        self._sel.close()
        self._listener.close()
        self._wake_r.close()
        self._wake_w.close()


def _size(item: "bytes | FileBody") -> int:
    return item.remaining if isinstance(item, FileBody) else len(item)


def _discard(items) -> None:
    for item in items:
        if isinstance(item, FileBody):
            item.fh.close()
