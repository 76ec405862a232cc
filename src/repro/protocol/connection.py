"""Socket framing for the manager↔worker and worker↔worker protocols.

All control traffic is length-prefixed JSON; bulk file content follows
a control message as a raw byte stream of pre-announced size (so large
objects never pass through the JSON encoder).  The same
:class:`Connection` wrapper serves the manager's command channel and
the per-worker peer-transfer channel.
"""

from __future__ import annotations

import json
import os
import socket
import struct
from typing import Optional

__all__ = [
    "Connection",
    "FrameReassembler",
    "ProtocolError",
    "encode_frame",
    "listen",
    "SESSION_CLIENT",
    "SESSION_WORKER",
    "session_kind",
]

#: frame header: unsigned 32-bit big-endian payload length
_HEADER = struct.Struct(">I")

#: refuse absurd frames rather than attempting a giant allocation
MAX_MESSAGE_SIZE = 64 << 20

#: chunk size for streaming file content through the socket
IO_CHUNK = 1 << 20


class ProtocolError(ConnectionError):
    """Malformed frame, unexpected EOF, or oversized message."""


#: session roles served by the manager's reactor.  A single listening
#: socket admits both workers and clients (service mode); the *first*
#: control frame on a connection decides which protocol it speaks.
SESSION_WORKER = "worker"
SESSION_CLIENT = "client"


def session_kind(mtype: str) -> Optional[str]:
    """Role implied by a connection's first message type.

    ``register`` opens a worker session and ``client_hello`` a client
    session; any other opening frame is invalid and returns None (the
    reactor then unwinds the connection).
    """
    if mtype == "register":
        return SESSION_WORKER
    if mtype == "client_hello":
        return SESSION_CLIENT
    return None


def encode_frame(message: dict) -> bytes:
    """Encode one JSON control message as a length-prefixed frame."""
    payload = json.dumps(message, separators=(",", ":")).encode()
    if len(payload) > MAX_MESSAGE_SIZE:
        raise ProtocolError(f"message too large: {len(payload)} bytes")
    return _HEADER.pack(len(payload)) + payload


def listen(host: str = "127.0.0.1", port: int = 0) -> socket.socket:
    """Create a listening TCP socket; ``port=0`` picks a free port."""
    s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    s.bind((host, port))
    s.listen(128)
    return s


class Connection:
    """A framed, bidirectional message channel over one TCP socket."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    @classmethod
    def connect(cls, host: str, port: int, timeout: Optional[float] = 30.0) -> "Connection":
        """Open a client connection to ``host:port``."""
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.settimeout(None)
        return cls(sock)

    # -- framed JSON --------------------------------------------------

    def send_message(self, message: dict) -> None:
        """Send one JSON control message as a length-prefixed frame."""
        self.sock.sendall(encode_frame(message))

    def send_frame(self, frame: bytes) -> None:
        """Send a pre-encoded frame (see :func:`encode_frame`)."""
        self.sock.sendall(frame)

    def recv_message(self) -> dict:
        """Receive one JSON control message; raises on EOF/corruption."""
        header = self._recv_exact(_HEADER.size)
        (length,) = _HEADER.unpack(header)
        if length > MAX_MESSAGE_SIZE:
            raise ProtocolError(f"incoming message too large: {length} bytes")
        payload = self._recv_exact(length)
        try:
            message = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"corrupt frame: {exc}") from exc
        if not isinstance(message, dict):
            raise ProtocolError("control message must be a JSON object")
        return message

    # -- raw byte streams ----------------------------------------------

    def send_bytes(self, data: bytes) -> None:
        """Send a pre-announced raw byte payload."""
        self.sock.sendall(data)

    def recv_bytes(self, size: int) -> bytes:
        """Receive exactly ``size`` raw bytes."""
        return self._recv_exact(size)

    def send_file(self, path: str | os.PathLike, size: int) -> None:
        """Stream exactly ``size`` bytes of a file's content."""
        remaining = size
        with open(path, "rb") as f:
            while remaining > 0:
                chunk = f.read(min(IO_CHUNK, remaining))
                if not chunk:
                    raise ProtocolError(
                        f"file {path} shorter than announced size {size}"
                    )
                self.sock.sendall(chunk)
                remaining -= len(chunk)

    def recv_to_file(self, path: str | os.PathLike, size: int) -> None:
        """Receive exactly ``size`` bytes into a file (created/truncated)."""
        remaining = size
        with open(path, "wb") as f:
            while remaining > 0:
                chunk = self.sock.recv(min(IO_CHUNK, remaining))
                if not chunk:
                    raise ProtocolError(
                        f"connection closed with {remaining} bytes outstanding"
                    )
                f.write(chunk)
                remaining -= len(chunk)

    # -- internals -------------------------------------------------------

    def _recv_exact(self, size: int) -> bytes:
        parts = []
        remaining = size
        while remaining > 0:
            chunk = self.sock.recv(min(IO_CHUNK, remaining))
            if not chunk:
                raise ProtocolError(
                    f"connection closed with {remaining} bytes outstanding"
                )
            parts.append(chunk)
            remaining -= len(chunk)
        return b"".join(parts)

    def settimeout(self, timeout: Optional[float]) -> None:
        """Adjust the socket timeout for subsequent operations."""
        self.sock.settimeout(timeout)

    def close(self) -> None:
        """Close the underlying socket (idempotent)."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()

    def fileno(self) -> int:
        """Underlying descriptor, for use with selectors."""
        return self.sock.fileno()


class FrameReassembler:
    """Incremental frame reassembly for event-driven (reactor) readers.

    Bytes arrive in arbitrary chunks — a frame may be split across many
    reads, or one read may hold many frames plus the start of the next.
    Feed every chunk with :meth:`feed`, then drain complete items with
    :meth:`next_item`:

    * in *frame* mode (the default), an item is one decoded JSON control
      message (``("msg", dict)``);
    * after :meth:`expect_bytes`, the next item is one raw byte payload
      of the announced size (``("bytes", b"...")``) — this is how a
      reader switches into bulk mode for messages that announce a
      trailing payload (``file_data``, ``task_done`` results).

    The pull API guarantees a consumer sees items strictly in wire
    order, and can decide per-item whether the next bytes are a frame
    or a bulk payload.  ``feed(b"")`` records EOF: leftover partial
    data then raises :class:`ProtocolError` (truncated frame or bulk
    stream), while a clean boundary just ends iteration.
    """

    def __init__(self, max_message_size: Optional[int] = None) -> None:
        self.max_message_size = (
            MAX_MESSAGE_SIZE if max_message_size is None else max_message_size
        )
        self._chunks: list[bytes] = []
        self._buffered = 0
        self._expected: Optional[int] = None  # bulk-mode byte count
        self._eof = False

    @property
    def buffered(self) -> int:
        """Bytes received but not yet emitted as items."""
        return self._buffered

    def feed(self, data: bytes) -> None:
        """Add received bytes; ``b""`` marks EOF."""
        if data:
            self._chunks.append(data)
            self._buffered += len(data)
        else:
            self._eof = True

    def expect_bytes(self, size: int) -> None:
        """The next item is a raw payload of exactly ``size`` bytes."""
        if self._expected is not None:
            raise ProtocolError("already expecting a bulk payload")
        if size < 0:
            raise ProtocolError(f"negative bulk payload size {size}")
        self._expected = size

    def next_item(self) -> Optional[tuple[str, "dict | bytes"]]:
        """Next complete item, or None until more bytes arrive.

        Raises :class:`ProtocolError` on oversized/corrupt frames and
        on EOF with a partial frame or bulk payload outstanding.
        """
        if self._expected is not None:
            if self._buffered < self._expected:
                self._check_eof("bulk payload")
                return None
            payload = self._take(self._expected)
            self._expected = None
            return ("bytes", payload)
        if self._buffered < _HEADER.size:
            self._check_eof("frame header")
            return None
        (length,) = _HEADER.unpack(self._peek(_HEADER.size))
        if length > self.max_message_size:
            raise ProtocolError(f"incoming message too large: {length} bytes")
        if self._buffered < _HEADER.size + length:
            self._check_eof("frame body")
            return None
        self._take(_HEADER.size)
        payload = self._take(length)
        try:
            message = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"corrupt frame: {exc}") from exc
        if not isinstance(message, dict):
            raise ProtocolError("control message must be a JSON object")
        return ("msg", message)

    def _check_eof(self, what: str) -> None:
        if self._eof and (self._buffered or self._expected is not None):
            raise ProtocolError(
                f"connection closed mid-{what} "
                f"({self._buffered} bytes buffered)"
            )

    # -- buffer plumbing ------------------------------------------------

    def _compact(self) -> None:
        if len(self._chunks) > 1:
            self._chunks = [b"".join(self._chunks)]

    def _peek(self, size: int) -> bytes:
        if len(self._chunks[0]) < size:
            self._compact()
        return self._chunks[0][:size]

    def _take(self, size: int) -> bytes:
        if size == 0:
            return b""
        self._compact()
        head = self._chunks[0]
        taken, rest = head[:size], head[size:]
        self._chunks = [rest] if rest else []
        self._buffered -= size
        return taken
