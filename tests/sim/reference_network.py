"""Reference networks: the finish times production is checked against.

``SingleTimerNetwork`` is ``repro.sim.network.Network`` as it was before
a change became one pass over the flows: a change ran ``_advance`` over
every flow, then ``_rearm`` re-derived every rate through ``_fair_rate``
and timed the earliest finisher.  Its body is kept verbatim (only the
class is renamed), so it owns the rate and byte arithmetic production
must reproduce to the last bit.

``PerFlowEventNetwork`` is how the network kept its finish times before
the single timer: every change cancels and re-pushes one event per flow,
each flow finishes when its own event fires, and a sliver re-arms its
own event only.  The arithmetic is ``SingleTimerNetwork``'s (inherited);
what differs is who holds a timer.

Both are oracles of ``test_engine_network.py``; production code never
imports this module.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Optional

from repro.sim.engine import EventHandle, Simulation
from repro.sim.network import NetNode, NetTransfer


class SingleTimerNetwork:
    """Tracks active transfers and keeps the next completion scheduled."""

    def __init__(self, sim: Simulation, latency: float = 0.0) -> None:
        self.sim = sim
        self.nodes: dict[str, NetNode] = {}
        self._active: dict[int, NetTransfer] = {}
        self._ids = itertools.count(1)
        self._last_update = 0.0
        #: the one pending completion event: the earliest finisher's
        self._timer: Optional[EventHandle] = None
        #: fixed per-transfer setup delay (connection establishment,
        #: manager round-trips) before bytes start flowing
        self.latency = latency
        #: completed-transfer count and bytes, for trace summaries
        self.completed_transfers = 0
        self.bytes_moved = 0.0

    def add_node(self, name: str, up_bps: float, down_bps: Optional[float] = None) -> NetNode:
        """Register an endpoint; ``down_bps`` defaults to ``up_bps``."""
        if name in self.nodes:
            raise ValueError(f"duplicate network node {name!r}")
        node = NetNode(name=name, up_bps=up_bps, down_bps=down_bps if down_bps is not None else up_bps)
        self.nodes[name] = node
        return node

    def set_bandwidth(
        self,
        name: str,
        up_bps: Optional[float] = None,
        down_bps: Optional[float] = None,
    ) -> None:
        """Retune a node's link capacity mid-run (fault injection).

        In-flight transfers are advanced to the current instant first so
        bytes already moved at the old rate stay moved; then every
        active flow's rate and the next completion are recomputed.
        """
        node = self.nodes[name]
        self._advance()
        if up_bps is not None:
            node.up_bps = up_bps
        if down_bps is not None:
            node.down_bps = down_bps
        self._rearm()

    def start(
        self,
        src_name: str,
        dst_name: str,
        size: float,
        on_complete: Callable[[NetTransfer], None],
    ) -> NetTransfer:
        """Begin transferring ``size`` bytes; calls back when done."""
        if size < 0:
            raise ValueError("transfer size must be non-negative")
        src = self.nodes[src_name]
        dst = self.nodes[dst_name]
        t = NetTransfer(
            transfer_id=next(self._ids),
            src=src,
            dst=dst,
            size=float(size),
            remaining=float(size),
            on_complete=on_complete,
            started_at=self.sim.now,
        )
        if self.latency > 0:
            # setup phase: occupies the scheduling slot but no bandwidth
            self.sim.schedule(self.latency, self._activate, t)
        else:
            self._activate(t)
        return t

    def _activate(self, t: NetTransfer) -> None:
        self._advance()
        t.src.active_out += 1
        t.dst.active_in += 1
        self._active[t.transfer_id] = t
        self._rearm()

    def active_count(self) -> int:
        """Number of in-flight transfers."""
        return len(self._active)

    # -- internals ------------------------------------------------------

    @staticmethod
    def _fair_rate(t: NetTransfer) -> float:
        up = t.src.up_bps / max(1, t.src.active_out)
        down = t.dst.down_bps / max(1, t.dst.active_in)
        return min(up, down)

    def _advance(self) -> None:
        """Progress every active transfer to the current instant."""
        dt = self.sim.now - self._last_update
        if dt > 0:
            for t in self._active.values():
                t.remaining = max(0.0, t.remaining - t.rate * dt)
        self._last_update = self.sim.now

    def _rearm(self) -> None:
        """Recompute every rate; time the earliest finisher.

        Flows finishing at the same instant complete in activation
        order (the first keeps the timer, and its completion re-arms
        for the next at zero delay).  A stalled flow (rate 0, bytes
        left) is skipped: it has no finish time until the next change.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        now = self.sim.now
        first: Optional[NetTransfer] = None
        first_eta = first_due = 0.0
        for t in self._active.values():
            t.rate = self._fair_rate(t)
            if t.rate <= 0:
                if t.remaining > 0:
                    continue
                eta = 0.0
            else:
                eta = t.remaining / t.rate
                if not math.isfinite(eta):
                    raise RuntimeError(f"non-finite transfer eta for {t}")
            # compared as the clock will read it: two ETAs a float apart
            # can land on one instant, and then activation order decides
            due = now + eta
            if first is None or due < first_due:
                first, first_eta, first_due = t, eta, due
        if first is not None:
            self._timer = self.sim.schedule(first_eta, self._finish, first)

    def _finish(self, t: NetTransfer) -> None:
        self._advance()
        # a sliver below a millibyte — or one whose ETA underflows the
        # float tick at the current timestamp — counts as delivered;
        # without the ETA check a sub-ulp delay livelocks the clock
        eta = t.remaining / t.rate if t.rate > 0 else float("inf")
        if t.remaining > 1e-3 and (self.sim.now + eta) > self.sim.now:
            self._rearm()
            return
        del self._active[t.transfer_id]
        t.src.active_out -= 1
        t.dst.active_in -= 1
        t.finished_at = self.sim.now
        self.completed_transfers += 1
        self.bytes_moved += t.size
        self._rearm()
        t.on_complete(t)


class PerFlowEventNetwork(SingleTimerNetwork):
    def __init__(self, sim, latency: float = 0.0) -> None:
        super().__init__(sim, latency)
        self._events: dict = {}
        #: times a flow's own event fired with a sliver still to move
        self.sliver_rearms = 0

    def _rearm(self) -> None:
        for t in self._active.values():
            t.rate = self._fair_rate(t)
            event = self._events.pop(t.transfer_id, None)
            if event is not None:
                event.cancel()
            if t.rate > 0:
                eta = t.remaining / t.rate
            elif t.remaining <= 0:
                eta = 0.0
            else:
                continue  # stalled; re-armed on next change
            self._events[t.transfer_id] = self.sim.schedule(eta, self._finish, t)

    def _finish(self, t: NetTransfer) -> None:
        self._advance()
        eta = t.remaining / t.rate if t.rate > 0 else float("inf")
        if t.remaining > 1e-3 and (self.sim.now + eta) > self.sim.now:
            self.sliver_rearms += 1
            self._events[t.transfer_id] = self.sim.schedule(eta, self._finish, t)
            return
        del self._active[t.transfer_id]
        del self._events[t.transfer_id]
        t.src.active_out -= 1
        t.dst.active_in -= 1
        t.finished_at = self.sim.now
        self.completed_transfers += 1
        self.bytes_moved += t.size
        self._rearm()
        t.on_complete(t)
