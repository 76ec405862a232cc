"""What the control plane's task containers must agree on, checked
after every pump — a test oracle, not product code.

Each task the plane knows is in exactly the one container its state
names: the ready queue (heap or parked) while ``READY``,
``_dispatched``, ``_running``, ``_finishing`` while it waits for
outputs to come home, and none once terminal.  Every task in
``_finishing`` still awaits something, and each name it awaits has a
fetch in flight (else nothing would ever finish it).  The slot ledger
``_lib_load`` equals a recount of the calls placed.

The plane's workers are exactly the runtime's connected ones — which is
why the port needs no ``worker_connected``: membership in
``control.workers`` is the answer.  The transfer table's per-kind loads
equal a recount of what is in flight, and no transfer in flight touches
a worker that left.  And a plane that ended its workflow holds nothing
of it: no stage, fetch or awaited retrieval, and no replica of a file
that was to live no longer than the workflow.

:func:`watch_plane_invariants` wraps ``ControlPlane.pump`` and
``end_workflow`` so each outermost pump, and the end, leave
:func:`violations` empty; ``tests/sim`` and ``tests/faults`` run under
it (``tests/conftest.py``), beside the wake oracle of
``tests/stage_wakes.py``.
"""

import collections

from repro.core.control_plane import ControlPlane
from repro.core.files import CacheLevel
from repro.core.library import FunctionCall
from repro.core.task import TaskState
from repro.core.transfer_table import source_kind

_HOME = {
    TaskState.READY: "ready",
    TaskState.DISPATCHED: "dispatched",
    TaskState.RUNNING: "running",
    TaskState.WAITING_RETRIEVAL: "finishing",
}


def violations(control: ControlPlane) -> list[str]:
    """Every way the plane's containers disagree with its task states."""
    containers = {
        "ready": control._ready,
        "dispatched": control._dispatched,
        "running": control._running,
        "finishing": control._finishing,
    }
    found = []
    for tid, task in control.tasks.items():
        home = _HOME.get(task.state)
        held = [name for name, c in containers.items() if tid in c]
        if held != ([home] if home else []):
            found.append(f"{tid} is {task.state.value} but held by {held}")
    for tid, waiting in control._finishing.items():
        if not waiting.awaited:
            found.append(f"{tid} awaits retrieval of nothing")
        for name in waiting.awaited:
            if name not in control._fetches:
                found.append(f"{tid} awaits {name}, which nothing is fetching")
    placed = collections.Counter(
        (t.worker_id, t.library_name)
        for t in (*control._dispatched.values(), *control._running.values())
        if isinstance(t, FunctionCall)
    )
    if placed != +control._lib_load:
        found.append(f"slot ledger {dict(control._lib_load)} != placed {dict(placed)}")
    found += _membership(control) + _transfers(control)
    if control.closed:
        found += _left_after_the_end(control)
    return found


def _membership(control: ControlPlane) -> list[str]:
    """``control.workers`` against the runtime's own idea of who is
    connected: the simulated cluster's flags (for a manager life still
    being told of joins and leaves), the real manager's handle table."""
    port = control.port
    if hasattr(port, "cluster"):
        if port._crashed:
            return []  # a dead life hears of no departure
        connected = {w.worker_id for w in port.cluster.workers.values() if w.connected}
    elif hasattr(port, "workers"):
        connected = set(port.workers)
    else:
        return []  # a scripted port has no table of its own
    if set(control.workers) != connected:
        return [f"plane workers {sorted(control.workers)} != connected {sorted(connected)}"]
    return []


def _transfers(control: ControlPlane) -> list[str]:
    found = []
    active = control.transfers.active()
    recount = collections.Counter(source_kind(t.source) for t in active)
    if recount != +collections.Counter(control.transfers.kind_loads()):
        found.append(
            f"kind loads {control.transfers.kind_loads()} != in flight {dict(recount)}"
        )
    for t in active:
        ends = [t.dest_worker] + [t.source] * (source_kind(t.source) == "peer")
        gone = [w for w in ends if w not in control.workers]
        if gone:
            found.append(f"transfer {t.transfer_id} of {t.cache_name} touches departed {gone}")
    return found


def _left_after_the_end(control: ControlPlane) -> list[str]:
    found = []
    for what, left in (
        ("stages", control._consumers),
        ("fetches", control._fetches),
        ("retrievals", control._finishing),
    ):
        if left:
            found.append(f"closed with {what} left: {sorted(left)}")
    for name in control.registry.names_at_level(CacheLevel.TASK, CacheLevel.WORKFLOW):
        holders = control.replicas.locate(name)
        if holders:
            found.append(f"closed with {name} still at {sorted(holders)}")
    return found


def watch_plane_invariants(monkeypatch) -> None:
    pump = ControlPlane.pump

    end_workflow = ControlPlane.end_workflow

    def checked(self):
        pump(self)
        if not self._pump_depth and not self.closed:
            found = violations(self)
            assert not found, f"control-plane invariants broken: {found}"

    def ended(self):
        end_workflow(self)
        found = violations(self)
        assert not found, f"control-plane invariants broken at the end: {found}"

    monkeypatch.setattr(ControlPlane, "pump", checked)
    monkeypatch.setattr(ControlPlane, "end_workflow", ended)
