"""A scripted worker: speaks the wire protocol, executes nothing.

The manager-throughput load generator needs hundreds of workers whose
only job is to acknowledge commands instantly, so the measured cost is
the manager's networking and dispatch path, not sandbox setup or
subprocess execution.  :class:`ScriptedWorker` registers like a real
worker and answers every command with the protocol-correct reply —
``cache_update`` for anything it was told to materialize, ``task_done``
(exit 0) for every execution — without touching the filesystem.

Each instance is one thread reading the command connection, plus its
:class:`~repro.protocol.batching.BatchSender` flusher, so a single
benchmark process can host 128 of them; they are in-process stand-ins,
not subprocess workers like the integration-test clusters.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.core.resources import Resources
from repro.protocol.batching import BatchSender
from repro.protocol.connection import Connection, ProtocolError
from repro.protocol.messages import M, validate

__all__ = ["ScriptedWorker"]


class ScriptedWorker:
    """Protocol-conformant worker stub for load generation and tests.

    Replies are coalesced into ``batch`` envelopes like the real
    worker's: up to ``batch_max`` per frame, held ``batch_delay``
    seconds at most.
    """

    def __init__(
        self,
        manager_host: str,
        manager_port: int,
        cores: float = 4,
        memory: int = 4_000,
        disk: int = 10_000,
        batch_max: int = 128,
        batch_delay: float = 0.002,
    ) -> None:
        self.capacity = Resources(cores=cores, memory=memory, disk=disk)
        self.tasks_completed = 0
        self._conn = Connection.connect(manager_host, manager_port)
        self._sender = BatchSender(
            self._conn, max_batch=batch_max, max_delay=batch_delay
        )
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
                    return
                self._handle(mtype, msg)
        except (ProtocolError, OSError):
            return

    def _handle(self, mtype: str, msg: dict) -> None:
        if mtype == M.EXECUTE:
            harvested = []
            for _name, cache_name, _level in (tuple(o) for o in msg["outputs"]):
                self._sender.notice(
                    {"type": M.CACHE_UPDATE, "cache_name": cache_name, "size": 1}
                )
                harvested.append(cache_name)
            self.tasks_completed += 1
            self._sender.notice(
                {
                    "type": M.TASK_DONE,
                    "task_id": msg["task_id"],
                    "exit_code": 0,
                    "output": "",
                    "harvested": harvested,
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
