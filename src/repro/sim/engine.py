"""Discrete-event simulation core.

A minimal, deterministic event loop: callbacks are scheduled at virtual
times and executed in (time, insertion order).  The simulated cluster
(:mod:`repro.sim.cluster`), network (:mod:`repro.sim.network`), and
manager (:mod:`repro.sim.simmanager`) all share one
:class:`Simulation`, so a 500-worker, multi-hour workflow executes in
milliseconds of real time with fully reproducible timings.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

__all__ = ["Simulation", "EventHandle"]


class EventHandle:
    """A scheduled callback that can be cancelled before it fires."""

    __slots__ = ("time", "callback", "args", "cancelled")

    def __init__(self, time: float, callback: Callable, args: tuple):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        self.cancelled = True


class Simulation:
    """A deterministic virtual-time event loop."""

    def __init__(self) -> None:
        self.now: float = 0.0
        #: heap of ``(time, seq, handle)``: ``seq`` is unique, so the
        #: tuples order in C without ever comparing two handles
        self._queue: list[tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()

    def schedule(self, delay: float, callback: Callable, *args: Any) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` simulated seconds.

        ``delay`` must be non-negative; a zero delay runs after all
        events already scheduled for the current instant (FIFO within a
        timestamp).
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        handle = EventHandle(self.now + delay, callback, args)
        heapq.heappush(self._queue, (handle.time, next(self._seq), handle))
        return handle

    def schedule_at(self, time: float, callback: Callable, *args: Any) -> EventHandle:
        """Run ``callback(*args)`` at absolute virtual time ``time``."""
        return self.schedule(max(0.0, time - self.now), callback, *args)

    def run(
        self,
        until: Optional[float] = None,
        stop_when: Optional[Callable[[], bool]] = None,
        max_events: int = 50_000_000,
    ) -> float:
        """Process events until the queue drains (or a bound is hit).

        ``until`` bounds virtual time; ``stop_when`` is checked after
        every callback; ``max_events`` guards against runaway loops.
        Returns the virtual time when the run stopped.
        """
        processed = 0
        queue = self._queue
        while queue:
            time, _, event = queue[0]
            if event.cancelled:
                heapq.heappop(queue)
                continue
            if until is not None and time > until:
                self.now = until
                return self.now
            heapq.heappop(queue)
            self.now = time
            event.callback(*event.args)
            processed += 1
            if stop_when is not None and stop_when():
                return self.now
            if processed >= max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events")
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    def pending(self) -> int:
        """Number of not-yet-cancelled scheduled events."""
        return sum(1 for _, _, e in self._queue if not e.cancelled)
