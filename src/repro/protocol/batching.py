"""Outbound control-message coalescing: the ``batch`` envelope sender.

Workers produce bursts of small notices — ``cache_update`` per
harvested output, ``task_done``, heartbeats — and sending each as its
own frame costs the manager one wakeup, one read and one state-lock
acquisition per notice.  :class:`BatchSender` coalesces notices that
accumulate between send windows into a single ``batch`` frame, flushed
when the queue reaches ``max_batch`` messages or ``max_delay`` seconds
after the first queued notice, whichever comes first.

Ordering is the protocol's load-bearing invariant (a worker's
``cache_update`` for a harvested output must precede its ``task_done``
on the same connection), so the sender is strictly FIFO: direct sends
— registration, frames with trailing byte payloads, streamed files —
flush every queued notice first under the same lock.  A queue of one
flushes as the bare message, not a one-element envelope, so lone
notices stay byte-identical to the unbatched protocol.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.protocol.connection import Connection
from repro.protocol.messages import M

__all__ = ["BatchSender"]


class BatchSender:
    """Thread-safe, order-preserving sender with notice coalescing.

    All of a process's outbound traffic on one connection should go
    through a single instance: :meth:`notice` queues a payload-free
    message for the next flush window, :meth:`send` transmits
    immediately (flushing queued notices first to preserve FIFO order).
    """

    def __init__(
        self,
        conn: Connection,
        max_batch: int = 128,
        max_delay: float = 0.002,
        metrics=None,
    ) -> None:
        self.conn = conn
        self.max_batch = max(1, max_batch)
        self.max_delay = max_delay
        self._lock = threading.Lock()
        self._queue: list[dict] = []
        self._wake = threading.Condition(self._lock)
        self._stopped = False
        self._m_frames = metrics.counter("net.frames_out") if metrics else None
        self._m_fill = metrics.histogram("net.batch_fill") if metrics else None
        self._flusher: Optional[threading.Thread] = threading.Thread(
            target=self._flush_loop, name="batch-flusher", daemon=True
        )
        self._flusher.start()

    # -- producing ------------------------------------------------------

    def notice(self, message: dict) -> None:
        """Queue a payload-free message for the next flush window."""
        with self._lock:
            self._queue.append(message)
            if len(self._queue) >= self.max_batch:
                self._flush_locked()
            elif len(self._queue) == 1:
                self._wake.notify()  # start this window's deadline

    def burst(self, messages: list[dict]) -> None:
        """Queue notices that end a burst and flush the window now.

        For a report someone is waiting on (a ``task_done`` behind the
        ``cache_update``s of its outputs): the messages leave in one
        frame together with whatever was queued before them, without
        waiting out ``max_delay``.
        """
        with self._lock:
            self._queue.extend(messages)
            self._flush_locked()

    def send(self, message: dict, payload: Optional[bytes] = None) -> None:
        """Send one message immediately, after flushing queued notices."""
        with self._lock:
            self._flush_locked()
            self._transmit([message])
            if payload is not None:
                self.conn.send_bytes(payload)

    def send_with_file(self, message: dict, path: str, size: int) -> None:
        """Send a message followed by streamed file content."""
        with self._lock:
            self._flush_locked()
            self._transmit([message])
            self.conn.send_file(path, size)

    def flush(self) -> None:
        """Transmit any queued notices now."""
        with self._lock:
            self._flush_locked()

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

    def _flush_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._stopped:
                    self._wake.wait()
                if self._stopped and not self._queue:
                    return
            # deadline: give the window max_delay to fill, then flush
            # whatever accumulated (outside the lock so producers and
            # direct sends are never stalled by the wait itself)
            threading.Event().wait(self.max_delay)
            try:
                self.flush()
            except OSError:
                return  # connection tore down; producers will see it too

    def close(self) -> None:
        """Flush remaining notices and stop the flusher (idempotent)."""
        with self._lock:
            self._stopped = True
            try:
                self._flush_locked()
            except OSError:
                pass
            self._wake.notify_all()
        if self._flusher is not None:
            self._flusher.join(timeout=5)
            self._flusher = None
