"""Bandwidth-shared network model for the simulated cluster.

Each node has an uplink and downlink capacity (bytes/second); an active
transfer's instantaneous rate is its fair share of the more contended
endpoint::

    rate = min(src.up / src.active_out, dst.down / dst.active_in)

Rates are recomputed whenever a transfer starts or finishes, and each
transfer's remaining bytes are advanced between recomputations, so the
completion time integrates the varying rate exactly.  This simple
endpoint-fair model is what makes the paper's hotspot phenomena emerge
naturally: 500 workers pulling from one URL server each get 1/500 of its
uplink (Fig. 11a); an unsupervised peer swarm saturates whichever worker
everyone chose (Fig. 11b); a per-source limit of 3 keeps every stream
near full rate (Fig. 11c).

**What a change costs.**  A change is a flow activating, a flow
finishing, or :meth:`Network.set_bandwidth`.  Each node keeps its fair
share per outgoing and per incoming flow (:attr:`NetNode.out_share`,
:attr:`NetNode.in_share`), recomputed only where its inputs change: for
the two endpoints of the flow that activates or finishes, and for the
node whose bandwidth is set.  The change then makes *one* pass over the
active flows, which for each flow advances its remaining bytes at its
old rate, takes the smaller of its endpoints' shares as its new rate,
and keeps the earliest finisher — the only flow that holds a timer,
since its completion is the next change and re-derives everyone else's
anyway.  So a change costs O(1) share arithmetic, O(active flows) of
two subtractions, a comparison and a division each, and one scheduled
event.

Nothing cheaper can give the same finish times to the last bit:
remaining bytes are advanced by repeated subtraction at every change,
``max(0.0, remaining - rate * dt)``, so every flow must be touched at
every change, including the flows whose rate it did not move — a flow
advanced once over two intervals would round differently from one
advanced at each.  (On a fan-out from one source, the case the paper's
figures are about, a change at the source moves the share of every flow
it serves anyway.)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.sim.engine import EventHandle, Simulation

__all__ = ["NetNode", "NetTransfer", "Network"]


@dataclass(slots=True)
class NetNode:
    """One endpoint: a worker, the manager, or a remote data server."""

    name: str
    #: uplink capacity in bytes/second (serving data)
    up_bps: float
    #: downlink capacity in bytes/second (receiving data)
    down_bps: float
    active_out: int = 0
    active_in: int = 0
    #: the uplink's fair share per outgoing flow, bytes/second
    out_share: float = field(init=False)
    #: the downlink's fair share per incoming flow, bytes/second
    in_share: float = field(init=False)

    def __post_init__(self) -> None:
        self.reshare()

    def reshare(self) -> None:
        """Recompute both shares after a count or a capacity changed."""
        self.out_share = self.up_bps / max(1, self.active_out)
        self.in_share = self.down_bps / max(1, self.active_in)


@dataclass(slots=True)
class NetTransfer:
    """One in-flight bulk transfer between two nodes."""

    transfer_id: int
    src: NetNode
    dst: NetNode
    size: float
    remaining: float
    on_complete: Callable[["NetTransfer"], None]
    started_at: float
    #: current fair-share rate, bytes/second
    rate: float = 0.0
    finished_at: Optional[float] = None


class Network:
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

        Bytes already moved at the old rates stay moved: the pass that
        follows advances every in-flight transfer at its old rate before
        it takes the new one.
        """
        node = self.nodes[name]
        if up_bps is not None:
            node.up_bps = up_bps
        if down_bps is not None:
            node.down_bps = down_bps
        node.reshare()
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
        t.src.active_out += 1
        t.dst.active_in += 1
        t.src.reshare()
        t.dst.reshare()
        # its rate is still 0, so the pass's advance leaves its bytes be
        self._active[t.transfer_id] = t
        self._rearm()

    def active_count(self) -> int:
        """Number of in-flight transfers."""
        return len(self._active)

    # -- internals ------------------------------------------------------

    def _rearm(self) -> None:
        """The one pass: advance every flow at its old rate, give it its
        new one, and time the earliest finisher.

        Flows finishing at the same instant complete in activation
        order (the first keeps the timer, and its completion re-arms
        for the next at zero delay).  A stalled flow (rate 0, bytes
        left) is skipped: it has no finish time until the next change.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        advance = dt > 0
        isfinite = math.isfinite
        first: Optional[NetTransfer] = None
        first_eta = first_due = 0.0
        for t in self._active.values():
            if advance:
                # max(0.0, remaining - rate * dt), the same float
                left = t.remaining - t.rate * dt
                t.remaining = left if left > 0.0 else 0.0
            # min(up, down), the same float
            up = t.src.out_share
            down = t.dst.in_share
            rate = t.rate = down if down < up else up
            if rate <= 0:
                if t.remaining > 0:
                    continue
                eta = 0.0
            else:
                eta = t.remaining / rate
                if not isfinite(eta):
                    raise RuntimeError(f"non-finite transfer eta for {t}")
            # compared as the clock will read it: two ETAs a float apart
            # can land on one instant, and then activation order decides
            due = now + eta
            if first is None or due < first_due:
                first, first_eta, first_due = t, eta, due
        if first is not None:
            self._timer = self.sim.schedule(first_eta, self._finish, first)

    def _finish(self, t: NetTransfer) -> None:
        # its own bytes advanced as the pass will advance them
        now = self.sim.now
        dt = now - self._last_update
        left = t.remaining
        if dt > 0:
            left -= t.rate * dt
            left = left if left > 0.0 else 0.0
        # a sliver below a millibyte — or one whose ETA underflows the
        # float tick at the current timestamp — counts as delivered;
        # without the ETA check a sub-ulp delay livelocks the clock
        eta = left / t.rate if t.rate > 0 else float("inf")
        if left > 1e-3 and (now + eta) > now:
            self._rearm()
            return
        t.remaining = left
        del self._active[t.transfer_id]
        t.src.active_out -= 1
        t.dst.active_in -= 1
        t.src.reshare()
        t.dst.reshare()
        t.finished_at = now
        self.completed_transfers += 1
        self.bytes_moved += t.size
        self._rearm()
        t.on_complete(t)
