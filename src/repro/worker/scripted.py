"""A scripted worker: speaks the wire protocol, executes nothing.

The manager-throughput load generator needs hundreds of workers whose
only job is to acknowledge commands instantly, so the measured cost is
the manager's networking and dispatch path, not sandbox setup or
subprocess execution.  :class:`ScriptedWorker` registers like a real
worker and answers every command with the protocol-correct reply —
``cache_update`` for anything it was told to materialize, ``task_done``
(exit 0, listing every declared output) for every execution — without
touching the filesystem.

Each instance is one thread, reading the command connection and
writing the replies, so a single benchmark process can host 128 of
them; they are in-process stand-ins, not subprocess workers like the
integration-test clusters.  Replies to the commands of one inbound
read leave together: each is queued on the
:class:`~repro.protocol.batching.BatchSender`, and the queue is
flushed, as one ``batch`` frame, once the socket has nothing more to
read.
"""

from __future__ import annotations

import socket
import threading
from typing import Optional

from repro.core.resources import Resources
from repro.protocol.batching import BatchSender
from repro.protocol.connection import Connection, ProtocolError
from repro.protocol.messages import M, validate

__all__ = ["ScriptedWorker"]


class ScriptedWorker:
    """Protocol-conformant worker stub for load generation and tests."""

    def __init__(
        self,
        manager_host: str,
        manager_port: int,
        cores: float = 4,
        memory: int = 4_000,
        disk: int = 10_000,
    ) -> None:
        self.capacity = Resources(cores=cores, memory=memory, disk=disk)
        self.tasks_completed = 0
        self._conn = Connection.connect(manager_host, manager_port)
        self._sender = BatchSender(self._conn)
        self._sender.send(
            {
                "type": M.REGISTER,
                "capacity": self.capacity.to_dict(),
                "transfer_port": 1,  # never contacted: nothing is served
                "cached": [],
            }
        )
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    # -- command handling ----------------------------------------------

    def _loop(self) -> None:
        try:
            while True:
                msg = self._conn.recv_message()
                mtype = validate(msg)
                if mtype == M.SHUTDOWN:
                    self._sender.flush()  # answer what came before it
                    return
                self._handle(mtype, msg)
                if not self._readable():
                    self._sender.flush()
        except (ProtocolError, OSError):
            return

    def _readable(self) -> bool:
        """Whether more of the manager's bytes wait in the socket."""
        try:
            return bool(
                self._conn.sock.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT)
            )
        except BlockingIOError:
            return False

    def _handle(self, mtype: str, msg: dict) -> None:
        if mtype == M.EXECUTE:
            self.tasks_completed += 1
            self._sender.notice(
                {
                    "type": M.TASK_DONE,
                    "task_id": msg["task_id"],
                    "exit_code": 0,
                    "output": "",
                    "outputs": [[cache_name, 1] for _, cache_name, _ in msg["outputs"]],
                    "execution_time": 0.0,
                    "staging_time": 0.0,
                }
            )
        elif mtype == M.PUT_FILE:
            self._conn.recv_bytes(int(msg["size"]))  # drain, keep framing
            self._ack_transfer(msg)
        elif mtype in (M.FETCH_FILE, M.STAGE_MINITASK):
            self._ack_transfer(msg)
        elif mtype == M.SEND_BACK:
            self._sender.send(
                {
                    "type": M.FILE_DATA,
                    "cache_name": msg["cache_name"],
                    "found": False,
                    "size": 0,
                }
            )
        # UNLINK / CANCEL_TASK / ACK need no reply

    def _ack_transfer(self, msg: dict) -> None:
        self._sender.notice(
            {
                "type": M.CACHE_UPDATE,
                "cache_name": msg["cache_name"],
                "size": int(msg.get("size", 1)),
                "transfer_id": msg.get("transfer_id"),
            }
        )

    # -- lifecycle ------------------------------------------------------

    def drain(self) -> None:
        """Announce a graceful departure; the manager answers shutdown."""
        self._sender.send({"type": M.DRAINING})

    def join(self, timeout: Optional[float] = 5.0) -> None:
        """Wait for the reader thread to exit (manager-ordered shutdown)."""
        self._thread.join(timeout=timeout)

    def close(self, timeout: Optional[float] = 5.0) -> None:
        """Stop the reader and release the connection (idempotent)."""
        self._sender.close()
        self._conn.close()
        self._thread.join(timeout=timeout)
