"""Reference network: one scheduled completion per active flow.

This is how ``repro.sim.network.Network`` kept its finish times until
the single timer replaced it: every change cancels and re-pushes one
event per flow, each flow finishes when its own event fires, and a
sliver re-arms its own event only.  The rate and byte arithmetic is
production's (inherited); what differs is who holds a timer.  It lives
here as the oracle of ``test_engine_network.py``; production code never
imports this module.
"""

from repro.sim.network import NetTransfer, Network


class PerFlowEventNetwork(Network):
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
