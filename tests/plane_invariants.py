"""What the control plane's task containers must agree on, checked
after every pump — a test oracle, not product code.

Each task the plane knows is in exactly the one container its state
names: the ready queue (heap or parked) while ``READY``,
``_dispatched``, ``_running``, ``_finishing`` while it waits for
outputs to come home, and none once terminal.  Every task in
``_finishing`` still awaits something, and each name it awaits has a
fetch in flight (else nothing would ever finish it).  The slot ledger
``_lib_load`` equals a recount of the calls placed.

:func:`watch_plane_invariants` wraps ``ControlPlane.pump`` so each
outermost pump ends with :func:`violations` empty; ``tests/sim`` and
``tests/faults`` run under it (``tests/conftest.py``), beside the wake
oracle of ``tests/stage_wakes.py``.
"""

import collections

from repro.core.control_plane import ControlPlane
from repro.core.library import FunctionCall
from repro.core.task import TaskState

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
    return found


def watch_plane_invariants(monkeypatch) -> None:
    pump = ControlPlane.pump

    def checked(self):
        pump(self)
        if not self._pump_depth and not self.closed:
            found = violations(self)
            assert not found, f"control-plane invariants broken: {found}"

    monkeypatch.setattr(ControlPlane, "pump", checked)
