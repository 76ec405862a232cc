"""The fleet-size policy behind elastic scale-up and scale-down.

:class:`Autoscaler` only answers "how many workers should there be for
this queue depth?"; :meth:`repro.core.control_plane.ControlPlane.autoscale_tick`
reads the plane's own load and fleet, asks it, and carries out the
shrinking half (which workers leave, and their graceful drain).  The
runtimes keep the mechanism: starting workers and re-arming the clock.
"""

from __future__ import annotations

import math
from typing import Optional

__all__ = ["Autoscaler"]


class Autoscaler:
    """Fleet-size policy: target workers as a function of queue depth.

    Pure and runtime-agnostic: ``ControlPlane.autoscale_tick`` evaluates
    it on either runtime's clock (the simulator's driver and the
    ``repro-service`` daemon both tick the plane).  The target is ``ceil(ready_depth / tasks_per_worker)`` clamped to
    ``[min_workers, max_workers]``; scale-up is prompt (queued work is
    waiting), scale-down only fires when the fleet exceeds the target
    by the hysteresis band, and any decision starts a cooldown that
    suppresses further ones — the classic anti-flap pair.
    """

    def __init__(
        self,
        min_workers: int = 1,
        max_workers: int = 32,
        tasks_per_worker: float = 4.0,
        hysteresis: float = 0.25,
        cooldown: float = 30.0,
    ) -> None:
        if min_workers < 1 or max_workers < min_workers:
            raise ValueError("need 1 <= min_workers <= max_workers")
        if tasks_per_worker <= 0:
            raise ValueError("tasks_per_worker must be positive")
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.tasks_per_worker = tasks_per_worker
        self.hysteresis = hysteresis
        self.cooldown = cooldown
        self._last_action: Optional[float] = None

    def target(self, ready_depth: int) -> int:
        """The clamped ideal fleet size for one queue-depth sample."""
        want = math.ceil(ready_depth / self.tasks_per_worker)
        return max(self.min_workers, min(self.max_workers, want))

    def decide(self, now: float, ready_depth: int, current: int) -> int:
        """Workers to add (>0), drain (<0), or leave alone (0)."""
        if (
            self._last_action is not None
            and now - self._last_action < self.cooldown
        ):
            return 0
        want = self.target(ready_depth)
        delta = want - current
        if delta > 0:
            delta = min(delta, self.max_workers - current)
        elif delta < 0:
            # hysteresis: tolerate a modest surplus before draining
            band = max(1, int(self.hysteresis * max(current, 1)))
            if current - want < band:
                return 0
            delta = max(delta, self.min_workers - current)
        if delta != 0:
            self._last_action = now
        return delta
