"""Fault-plan interpreter for the discrete-event runtime.

:class:`SimFaultInjector` binds a :class:`~repro.faults.plan.FaultPlan`
to a running :class:`~repro.sim.simmanager.SimManager`: timed crashes,
link degradations and disconnects become simulation events; transfer
faults become verdicts drawn when the manager starts each simulated
flow.  Every injected fault is recorded through
:meth:`~repro.core.control_plane.ControlPlane.note_fault` *before* the
control plane sees its consequences, so a transaction log always shows
the ``fault_injected`` event ahead of the recovery it triggered.

Determinism: all randomness comes from plan-scoped RNGs, and faults are
scheduled through the simulation clock, so the same plan + seed yields
an identical event sequence on every run.
"""

from __future__ import annotations

import collections
from typing import Optional

from repro.core.control_plane import source_kind
from repro.core.events import Event
from repro.core.transfer_table import Transfer
from repro.faults.plan import FaultPlan, ManagerCrash, WorkerCrash

__all__ = ["SimFaultInjector"]


class SimFaultInjector:
    """Drives a FaultPlan against one simulated workflow run.

    Instantiate after creating the :class:`SimManager` and before
    calling ``run()``; the injector installs itself as the manager's
    ``fault_injector`` and arms every scheduled fault.
    """

    def __init__(self, plan: FaultPlan, manager) -> None:
        self.plan = plan
        self.manager = manager
        self.cluster = manager.cluster
        self.sim = manager.sim
        self._verdict_rng = plan.rng_for("sim.transfers")
        self._fraction_rng = plan.rng_for("sim.fractions")
        #: completed (non-library) tasks per worker, for after_tasks crashes
        self._task_counts: collections.Counter = collections.Counter()
        self._after_crashes: dict[str, list[WorkerCrash]] = {}
        self._fired: set[WorkerCrash] = set()
        #: total completions across all workers, for manager crashes
        self._total_task_ends = 0
        self._after_mgr_crashes: list[ManagerCrash] = []
        self._mgr_fired: set[ManagerCrash] = set()
        manager.fault_injector = self
        self._arm()

    def _arm(self) -> None:
        for c in self.plan.crashes:
            if c.at is not None:
                self.sim.schedule_at(c.at, self._crash, c.worker, "crash")
            else:
                self._after_crashes.setdefault(c.worker, []).append(c)
        for jn in self.plan.joins:
            self.sim.schedule_at(jn.at, self._join, jn)
        for dr in self.plan.drains:
            self.sim.schedule_at(dr.at, self._drain, dr.worker)
        for d in self.plan.degrades:
            self.sim.schedule_at(d.at, self._degrade, d.worker, d.factor)
        for d in self.plan.disconnects:
            # the sim has no live socket to sever: the manager-visible
            # effect of a dropped control connection is a worker loss
            self.sim.schedule_at(d.at, self._crash, d.worker, "disconnect")
        for mc in self.plan.manager_crashes:
            if mc.at is not None:
                self._crash_manager(max(0.0, mc.at - self.sim.now))
            else:
                self._after_mgr_crashes.append(mc)
        if self._after_crashes or self._after_mgr_crashes:
            self.manager.control.log.attach(self._count_task_ends)

    # -- scheduled faults ----------------------------------------------

    def _crash(self, worker_id: str, category: str) -> None:
        worker = self.cluster.workers.get(worker_id)
        if worker is None or not worker.connected:
            return  # already gone; nothing to kill
        self.manager.control.note_fault(worker_id, category)
        self.cluster.remove_worker(worker_id, at=self.sim.now)

    def _join(self, spec) -> None:
        """Elastic scale-up: a scheduled worker joins the live cluster."""
        worker = self.cluster.workers.get(spec.worker)
        if worker is not None:
            if not worker.connected:
                self.cluster._join(worker)  # a known worker returning
            return
        self.cluster.add_worker(
            worker_id=spec.worker,
            cores=spec.cores,
            memory=spec.memory,
            disk=spec.disk,
            gpus=spec.gpus,
            at=self.sim.now,
        )

    def _drain(self, worker_id: str) -> None:
        """Elastic scale-down: a graceful, announced departure — no
        note_fault, because nothing broke; the txn log records it as a
        worker_drain/worker_drained pair instead."""
        worker = self.cluster.workers.get(worker_id)
        if worker is None or not worker.connected:
            return  # already gone; nothing to drain
        self.manager.control.drain_worker(worker_id)

    def _degrade(self, worker_id: str, factor: float) -> None:
        node = self.manager.network.nodes.get(worker_id)
        if node is None:
            return
        self.manager.control.note_fault(worker_id, "link_degrade")
        self.manager.network.set_bandwidth(
            worker_id, up_bps=node.up_bps * factor, down_bps=node.down_bps * factor
        )

    def _crash_manager(self, delay: float) -> None:
        # no note_fault: a dying manager records nothing — the fault's
        # evidence is the journal replay the next life performs.  As a
        # callback of the life it ends, a second crash is never heard.
        self.manager.schedule(delay, self.manager.crash)

    def _count_task_ends(self, e: Event) -> None:
        # EventLog sinks run inline under emit and must not re-enter the
        # control plane, so the kill itself is deferred to a sim event
        if e.kind != "task_end" or e.worker is None or e.category == "library":
            return
        self._task_counts[e.worker] += 1
        done = self._task_counts[e.worker]
        for c in self._after_crashes.get(e.worker, ()):
            if done >= c.after_tasks and c not in self._fired:
                self._fired.add(c)
                self.sim.schedule(0.0, self._crash, c.worker, "crash")
        self._total_task_ends += 1
        for mc in self._after_mgr_crashes:
            if self._total_task_ends >= mc.after_tasks and mc not in self._mgr_fired:
                self._mgr_fired.add(mc)
                self._crash_manager(0.0)

    # -- transfer interception -----------------------------------------

    def transfer_verdict(self, record: Transfer) -> Optional[tuple[str, float]]:
        """Fate of one starting transfer: None, or (mode, fraction).

        ``fraction`` is how much of the object's size occupies the link
        before a "fail" surfaces (corrupt transfers move every byte).
        Verdict and fraction draws come from separate plan-scoped RNGs,
        so the stream stays reproducible for a given plan seed.
        """
        verdict = self.plan.transfer_verdict(
            self._verdict_rng, source_kind(record.source)
        )
        if verdict is None:
            return None
        fraction = (
            0.1 + 0.8 * self._fraction_rng.random() if verdict == "fail" else 1.0
        )
        return (verdict, fraction)
