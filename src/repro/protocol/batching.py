"""Outbound control-message coalescing: the ``batch`` envelope sender.

Sending each small message as its own frame costs the manager one
wakeup and one read per message.  A sender that produces several
replies from one inbound read — the scripted worker answering a burst
of ``execute`` frames — queues them with
:meth:`BatchSender.notice` and writes them out as a single ``batch``
frame when it has nothing more to read (:meth:`BatchSender.flush`).
There is no timer: a queue is written out by whoever flushes it, or
when it reaches ``MAX_BATCH`` messages.

Ordering is the protocol's load-bearing invariant: a message that
announces an object — a transfer's ``cache_update``, or the
``task_done`` whose ``outputs`` list it — must reach the manager before
the ``cache_invalid`` of that object's eviction, which the worker
decides right after announcing it.  So the sender is strictly FIFO:
every write — a flush, registration, a frame with a trailing byte
payload — first writes out the queue under the same lock.  A queue of
one goes out as the bare message, not a one-element envelope, so lone
messages stay byte-identical to the unbatched protocol.

The real worker does not use this sender: its messages are frames on
its reactor's one FIFO per connection (:mod:`repro.core.reactor`),
which gives the same order with no lock.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.protocol.connection import Connection
from repro.protocol.messages import M

__all__ = ["BatchSender", "MAX_BATCH"]

#: most messages one ``batch`` envelope carries; a queue this long is
#: written out by the :meth:`BatchSender.notice` that filled it
MAX_BATCH = 128


class BatchSender:
    """Thread-safe, order-preserving sender: a locked FIFO.

    All of a process's outbound traffic on one connection should go
    through a single instance: :meth:`notice` queues a payload-free
    message, :meth:`flush` writes the queue out as one frame, and
    :meth:`send` writes the queue and then its message.
    """

    def __init__(self, conn: Connection, metrics=None) -> None:
        self.conn = conn
        self._lock = threading.Lock()
        self._queue: list[dict] = []
        self._m_frames = metrics.counter("net.frames_out") if metrics else None
        self._m_fill = metrics.histogram("net.batch_fill") if metrics else None

    def notice(self, message: dict) -> None:
        """Queue a payload-free message for the next flush."""
        with self._lock:
            self._queue.append(message)
            if len(self._queue) >= MAX_BATCH:
                self._flush_locked()

    def send(self, message: dict, payload: Optional[bytes] = None) -> None:
        """Send one message now, after the queued ones."""
        with self._lock:
            self._flush_locked()
            self._transmit([message])
            if payload is not None:
                self.conn.send_bytes(payload)

    def flush(self) -> None:
        """Write any queued messages out now."""
        with self._lock:
            self._flush_locked()

    def close(self) -> None:
        """Write out what is queued, if the connection still takes it."""
        try:
            self.flush()
        except OSError:
            pass

    # -- internals ------------------------------------------------------

    def _flush_locked(self) -> None:
        if self._queue:
            batch, self._queue = self._queue, []
            self._transmit(batch)

    def _transmit(self, messages: list[dict]) -> None:
        if len(messages) == 1:
            self.conn.send_message(messages[0])
        else:
            self.conn.send_message({"type": M.BATCH, "messages": messages})
        if self._m_frames is not None:
            self._m_frames.inc()
        if self._m_fill is not None:
            self._m_fill.observe(len(messages))
