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

Each placement index the plane keeps across pumps equals a rebuild from
its tables, but for the workers marked changed and not yet taken afresh
(``_changed``): the same views, and exactly one valid entry per view —
either once in the heap or parked, off it, on a shape the view cannot
take — keyed by the worker's *current* failure score and load (a change
that marks nothing — a skipped ``_view_changed`` on a score change —
shows here first); the parked sets and their reverse map agree and
their shapes form a chain; and no recorded infeasible shape that an
unmarked view fits.

A journal's replica hints are the replica table: the journal learns
replicas only from the plane's events, so a replica dropped without a
``file_deleted`` (or added without a ``file_cached``) shows here — but
inside a restart's rejoin window, where the hints are the prior life's
and wait for their workers to come back.

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
    found += _membership(control) + _transfers(control) + _indexes(control)
    found += _replica_hints(control)
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
    loads = control.transfers._load_by_kind
    if recount != +collections.Counter(loads):
        found.append(f"kind loads {loads} != in flight {dict(recount)}")
    for t in active:
        ends = [t.dest_worker] + [t.source] * (source_kind(t.source) == "peer")
        gone = [w for w in ends if w not in control.workers]
        if gone:
            found.append(f"transfer {t.transfer_id} of {t.cache_name} touches departed {gone}")
    return found


def _replica_hints(control: ControlPlane) -> list[str]:
    journal = control.journal
    if journal is None or control._recovering or not journal.writing:
        return []  # no journal, a rejoin window, or a life that ended
    hints = {name: set(at) for name, at in journal.replica_hints.items()}
    live = {name: control.replicas.locate(name) for name in control.replicas.names()}
    if hints == live:
        return []
    return [
        f"journal hints {name} at {sorted(hints.get(name, ()))}, "
        f"replicas at {sorted(live.get(name, ()))}"
        for name in sorted(hints.keys() | live.keys())
        if hints.get(name, set()) != live.get(name, set())
    ]


def _indexes(control: ControlPlane) -> list[str]:
    if getattr(control.port, "_crashed", False):
        return []  # a dead life's pools were released under it
    found = []
    pending = control._changed
    for key, index in control._indexes.items():
        fresh = {}
        for wid in control.workers:
            view = control._view_of(wid, key)
            if view is not None:
                fresh[wid] = view
        stale = sorted(
            wid
            for wid in index.views.keys() | fresh.keys()
            if index.views.get(wid) != fresh.get(wid) and wid not in pending
        )
        if stale:
            found.append(
                f"index {key!r}: views of {stale} {[index.views.get(w) for w in stale]} "
                f"!= rebuilt {[fresh.get(w) for w in stale]}"
            )
        in_heap = collections.Counter(id(entry) for entry in index._heap)
        for wid, view in index.views.items():
            entry = index._entries.get(wid)
            current = (control.failure_scores[wid], view.running_tasks, wid)
            shape = index._parked_on.get(wid)
            if shape is None:
                kept = in_heap[id(entry)] == 1
            else:
                # parked: off the heap, on a shape the view cannot take
                kept = (
                    not in_heap[id(entry)]
                    and wid in index._parked.get(shape, ())
                    and (view.draining or not view.can_fit(shape))
                )
            if not kept or (entry != current and wid not in pending):
                found.append(
                    f"index {key!r}: {wid} has no one valid entry {current} "
                    f"(entry {entry}, {in_heap[id(entry)]} in the heap, "
                    f"parked on {shape})"
                )
        parked = {(wid, s) for s, group in index._parked.items() for wid in group}
        on = index._parked_on
        if parked != set(on.items()) or not on.keys() <= index.views.keys():
            found.append(
                f"index {key!r}: parked {sorted(index._parked_on)} disagrees "
                f"with its shapes {index._parked} or its views"
            )
        if any(
            not (a.fits_within(b) or b.fits_within(a))
            for a in index._parked
            for b in index._parked
        ):
            found.append(f"index {key!r}: parked shapes {list(index._parked)} are no chain")
        for shape in index._infeasible:
            fits = sorted(
                wid
                for wid, v in fresh.items()
                if not v.draining and v.can_fit(shape) and wid not in pending
            )
            if fits:
                found.append(f"index {key!r} records {shape} infeasible; {fits} fit it")
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
