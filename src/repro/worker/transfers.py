"""Worker-side data movement: the peer transfer server and fetch client.

Workers can "fetch data from remote data services or from peer
workers" (paper §2.1); transfers are *supervised by the manager* —
a worker only ever fetches what a ``fetch_file`` command told it to,
from the source the manager chose, so the per-source concurrency
limits decided centrally are what actually happens on the wire.

Objects may be files or directory trees; directories travel as tar
streams.  Every peer reply carries an ``md5`` of the bytes the server
holds, which the receiver checks against what actually arrived, so
in-flight corruption is caught for any object; content-named objects
(``file-md5-...``/``buffer-md5-...``) are additionally verified against
the digest embedded in their name, so even a peer serving a wrong (but
self-consistently hashed) object cannot poison a cache.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import socket
import tarfile
import tempfile
import threading
from typing import Callable, Optional

from repro.protocol.connection import Connection, ProtocolError, listen
from repro.protocol.messages import M
from repro.util.hashing import hash_file

__all__ = [
    "PeerTransferServer",
    "fetch_from_peer",
    "fetch_from_url",
    "TransferFailed",
    "CorruptTransfer",
    "verify_content_name",
    "verify_outcome",
]


class TransferFailed(RuntimeError):
    """A commanded transfer could not be completed."""


class CorruptTransfer(TransferFailed):
    """The bytes arrived but failed content verification.

    Distinguished from plain failure so the manager can treat the
    *source's* copy as suspect (corruption is a replica-loss signal,
    not just a flaky link).
    """


def pack_directory(path: str, dest_tar: str) -> None:
    """Pack a directory tree into an uncompressed tar for streaming."""
    with tarfile.open(dest_tar, "w") as tar:
        tar.add(path, arcname=".")


def unpack_directory(tar_path: str, dest_dir: str) -> None:
    """Unpack a directory object received as a tar stream."""
    os.makedirs(dest_dir, exist_ok=True)
    with tarfile.open(tar_path, "r") as tar:
        tar.extractall(dest_dir, filter="data")


def verify_outcome(cache_name: str, path: str, digest: Optional[str] = None) -> str:
    """Verify a received object; returns "passed", "skipped" or "failed".
    ``digest`` is the file's md5 when the caller already measured it.

    Only names of the form ``file-md5-<digest>`` / ``buffer-md5-<digest>``
    embed a content hash; all other names (url-meta, task-spec, random)
    skip verification, as do directory objects, which are trusted from
    their tar (re-deriving a Merkle root is possible but not done on
    the hot path).  The three-way outcome feeds the worker's
    ``verify.*`` counters so a chaos run can tell "nothing was
    checkable" apart from "everything checked out".
    """
    for prefix in ("file-md5-", "buffer-md5-"):
        if cache_name.startswith(prefix):
            if not os.path.isfile(path):
                return "skipped"
            return (
                "passed"
                if (digest or hash_file(path)) == cache_name[len(prefix):]
                else "failed"
            )
    return "skipped"


def verify_content_name(cache_name: str, path: str) -> bool:
    """True unless the object demonstrably fails content verification."""
    return verify_outcome(cache_name, path) != "failed"


def _corrupted_copy(path: str) -> str:
    """A temp copy of ``path`` with its first byte flipped."""
    fd, tmp = tempfile.mkstemp(suffix=".corrupt")
    os.close(fd)
    shutil.copyfile(path, tmp)
    with open(tmp, "r+b") as fh:
        first = fh.read(1)
        fh.seek(0)
        fh.write(bytes([first[0] ^ 0xFF]) if first else b"\x00")
    return tmp


class PeerTransferServer:
    """Serves this worker's cache objects to peers over TCP.

    One accept loop, one thread per request.  ``lookup`` resolves a
    cache name to a local path (or None); the manager's scheduling
    already throttles how many peers hit us concurrently.
    """

    def __init__(
        self,
        lookup: Callable[[str], Optional[str]],
        host: str = "127.0.0.1",
        metrics=None,
    ):
        self._lookup = lookup
        #: chaos hook: called with each served cache name, may return
        #: "fail" (drop the connection without replying) or "corrupt"
        #: (serve a damaged copy); None/falsy serves faithfully
        self.tamper: Optional[Callable[[str], Optional[str]]] = None
        self._c_serves = metrics.counter("peer.serves") if metrics else None
        self._c_bytes = metrics.counter("peer.bytes_served") if metrics else None
        self._g_open = metrics.gauge("peer.serving") if metrics else None
        self._sock = listen(host, 0)
        self.host, self.port = self._sock.getsockname()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                sock, _ = self._sock.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve, args=(Connection(sock),), daemon=True
            ).start()

    def _count_served(self, size: int) -> None:
        if self._c_serves is not None:
            self._c_serves.inc()
            self._c_bytes.inc(size)

    def _serve(self, conn: Connection) -> None:
        if self._g_open is not None:
            self._g_open.inc()
        temp = None
        try:
            msg = conn.recv_message()
            cache_name = msg["cache_name"] if msg.get("type") == M.GET else ""
            path = self._lookup(cache_name) if cache_name else None
            if path is None or not os.path.lexists(path):
                conn.send_message(
                    {"type": M.FILE_DATA, "cache_name": cache_name, "found": False, "size": 0}
                )
                return
            verdict = self.tamper(cache_name) if self.tamper is not None else None
            if verdict == "fail":
                return  # injected failure: vanish mid-handshake
            source, fmt, md5 = path, "file", None
            if verdict == "corrupt" and os.path.isfile(path):
                # the reply advertises the digest of the *pristine* copy
                # while damaged bytes flow — exactly what in-transit
                # corruption looks like to the receiver
                md5 = hash_file(path)
                source = temp = _corrupted_copy(path)
            elif os.path.isdir(path):
                with tempfile.NamedTemporaryFile(suffix=".tar", delete=False) as tf:
                    source = temp = tf.name
                pack_directory(path, temp)
                fmt = "tar"
            size = os.path.getsize(source)
            conn.send_message(
                {
                    "type": M.FILE_DATA,
                    "cache_name": cache_name,
                    "found": True,
                    "size": size,
                    "format": fmt,
                    "md5": md5 or hash_file(source),
                }
            )
            with open(source, "rb") as f:
                conn.send_file(f, size)
            self._count_served(size)
        except (ProtocolError, OSError):
            pass  # peer went away mid-transfer; manager will reschedule
        finally:
            if temp is not None:
                with contextlib.suppress(OSError):
                    os.unlink(temp)
            if self._g_open is not None:
                self._g_open.dec()
            conn.close()

    def stop(self) -> None:
        """Shut the server down and wait for its accept loop (idempotent;
        a serve in progress runs to its end)."""
        self._stop.set()
        try:
            # close alone would leave the accept() in progress blocked
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._thread.join(timeout=5)


def fetch_from_peer(
    host: str,
    port: int,
    cache_name: str,
    dest_path: str,
    timeout: float = 60.0,
    on_verify: Optional[Callable[[str], None]] = None,
) -> int:
    """Download one object from a peer worker into ``dest_path``.

    Returns the object's size in bytes.  Directory objects arrive as
    tar and are unpacked at ``dest_path``.  Received bytes are checked
    against the transit digest the peer advertised (any object) and
    against the digest embedded in content-based names; ``on_verify``
    (if given) receives the combined outcome
    ("passed"/"skipped"/"failed").  Raises :class:`CorruptTransfer` on
    any digest mismatch, :class:`TransferFailed` on any other protocol
    error or absence.
    """
    try:
        conn = Connection.connect(host, port, timeout=timeout)
    except OSError as exc:
        raise TransferFailed(f"cannot reach peer {host}:{port}: {exc}") from exc
    try:
        conn.send_message({"type": M.GET, "cache_name": cache_name})
        reply = conn.recv_message()
        if not reply.get("found"):
            raise TransferFailed(f"peer {host}:{port} does not hold {cache_name}")
        size = int(reply["size"])
        transit_md5 = reply.get("md5")
        if reply.get("format") == "tar":
            with tempfile.NamedTemporaryFile(suffix=".tar", delete=False) as tf:
                tar_path = tf.name
            try:
                conn.recv_to_file(tar_path, size)
                if transit_md5 is not None and hash_file(tar_path) != transit_md5:
                    if on_verify is not None:
                        on_verify("failed")
                    raise CorruptTransfer(
                        f"transit verification failed for {cache_name} from peer"
                    )
                unpack_directory(tar_path, dest_path)
            finally:
                os.unlink(tar_path)
            outcome = verify_outcome(cache_name, dest_path)
            if outcome == "skipped" and transit_md5 is not None:
                outcome = "passed"
            if on_verify is not None:
                on_verify(outcome)
        else:
            conn.recv_to_file(dest_path, size)
            # one pass over the bytes, compared against both the digest
            # the sender measured and the one the name embeds
            digest = hash_file(dest_path) if transit_md5 is not None else None
            outcome = verify_outcome(cache_name, dest_path, digest)
            if transit_md5 is not None:
                if digest != transit_md5:
                    outcome = "failed"
                elif outcome == "skipped":
                    outcome = "passed"
            if on_verify is not None:
                on_verify(outcome)
            if outcome == "failed":
                os.unlink(dest_path)
                raise CorruptTransfer(
                    f"content verification failed for {cache_name} from peer"
                )
        return size
    except (ProtocolError, OSError) as exc:
        raise TransferFailed(f"peer transfer of {cache_name} failed: {exc}") from exc
    finally:
        conn.close()


def fetch_from_url(
    url: str,
    dest_path: str,
    timeout: float = 300.0,
    cache_name: Optional[str] = None,
    on_verify: Optional[Callable[[str], None]] = None,
) -> int:
    """Download a URL into ``dest_path``; returns bytes received.

    Supports ``file://`` (the offline archive used in tests/examples)
    and ``http(s)://``.  A local *directory* behind ``file://`` is
    copied recursively, standing in for an archive that serves trees.
    When ``cache_name`` is given, content-named downloads are verified
    like peer transfers (``on_verify`` sees the outcome) and a mismatch
    raises :class:`CorruptTransfer`.
    """
    if url.startswith("file://"):
        src = url[len("file://"):]
        if not os.path.exists(src):
            raise TransferFailed(f"url source missing: {url}")
        if os.path.isdir(src):
            shutil.copytree(src, dest_path)
            size = sum(
                os.path.getsize(os.path.join(r, f))
                for r, _d, fs in os.walk(dest_path)
                for f in fs
            )
        else:
            shutil.copyfile(src, dest_path)
            size = os.path.getsize(dest_path)
    else:
        # only a worker that fetches a remote URL pays for the HTTP stack
        import urllib.request

        try:
            with urllib.request.urlopen(url, timeout=timeout) as resp, open(
                dest_path, "wb"
            ) as out:
                shutil.copyfileobj(resp, out)
        except OSError as exc:
            raise TransferFailed(f"url fetch of {url} failed: {exc}") from exc
        size = os.path.getsize(dest_path)
    if cache_name is not None:
        outcome = verify_outcome(cache_name, dest_path)
        if on_verify is not None:
            on_verify(outcome)
        if outcome == "failed":
            if os.path.isfile(dest_path):
                os.unlink(dest_path)
            raise CorruptTransfer(
                f"content verification failed for {cache_name} from {url}"
            )
    return size
