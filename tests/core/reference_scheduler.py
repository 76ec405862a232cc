"""Reference scheduler: the brute-force decisions production is checked against.

``choose_worker`` and ``order_ready`` were ``Scheduler`` methods until
the indexed pump replaced them; they live here, bodies unchanged, as the
oracle of ``test_scheduler_equivalence.py`` and
``test_scheduler_properties.py``.  ``place_ready`` is the placement pass
the pump ran before its indexes outlived it — a ``PlacementIndex``
rebuilt from every worker on each pass, and every ready task probed
until 64 of them failed to place — kept, loop unchanged, as the oracle
of ``test_placement_pass_equivalence.py``.  Production code never
imports this module.
"""

from typing import Mapping, Optional, Sequence

from repro.core.control_plane import ControlPlane
from repro.core.library import FunctionCall
from repro.core.scheduler import PlacementIndex, Scheduler, WorkerView
from repro.core.task import Task, TaskState


def choose_worker(
    self: Scheduler,
    task: Task,
    workers: Mapping[str, WorkerView],
) -> Optional[str]:
    """Pick the worker to run ``task`` on, or None if none fits.

    Ranking: most cached input bytes, then lowest failure score
    (repeat offenders are deprioritized, paper §2.2 reliability),
    then fewest running tasks (to spread load), then worker id (for
    determinism).  With locality disabled, the locality key is 0.

    This is the *reference scan* — O(workers × inputs) per call.
    The pump uses :meth:`Scheduler.choose_worker_indexed`, which
    returns the same decision from the replica-holder index.
    """
    eligible = [
        w
        for w in workers.values()
        if not w.draining and w.can_fit(task.resources)
    ]
    if not eligible:
        return None
    input_names = task.input_cache_names()
    failure_score = self.failure_score or (lambda _w: 0)

    def rank(w: WorkerView) -> tuple:
        score = (
            self.replicas.cached_bytes_at(w.worker_id, input_names)
            if self.locality
            else 0
        )
        return (-score, failure_score(w.worker_id), w.running_tasks, w.worker_id)

    return min(eligible, key=rank).worker_id


def order_ready(tasks: Sequence[Task]) -> list[Task]:
    """Dispatch consideration order: priority desc, then FIFO.

    FIFO position is the submit-time ``seq`` — robust to arbitrary
    task ids (the old ``int(task_id.lstrip("t"))`` key raised ValueError
    on any id not of the form ``t<N>`` and mis-parsed ids with
    repeated leading ``t``\\ s, e.g. ``tt12``).  Unsubmitted tasks
    all carry seq 0 and keep their input order (stable sort).
    """
    return sorted(tasks, key=lambda t: (-t.priority, t.seq))


def place_ready(self: ControlPlane) -> bool:
    """``ControlPlane._place_ready`` as it was: a fresh index per library
    key per pass, and a scan that stops only at the 64th failure."""
    # 1. placement — ready tasks are popped from the priority heap
    # in (-priority, seq) order instead of re-sorting the whole
    # queue; placement indexes are built lazily per library key and
    # updated in place after each dispatch, so a pump touches each
    # worker once, not once per task
    index_cache: dict[Optional[str], PlacementIndex] = {}

    def get_index(key: Optional[str]) -> PlacementIndex:
        if key not in index_cache:
            views = {}
            for wid in self.workers:
                v = self._view_of(wid, key)
                if v is not None:
                    views[wid] = v
            index_cache[key] = PlacementIndex(
                views, self.scheduler.failure_score
            )
        return index_cache[key]

    failures = 0
    recovered = False
    # entries pushed from this token onward (lineage producers
    # resurrected mid-loop) wait for the recursive re-pump — the
    # same snapshot semantics the sorted-list pump had
    snapshot = self._ready.snapshot_token
    stash: list = []
    entries = self._ready.pop_entries(snapshot)
    try:
        for entry in entries:
            task = entry[3]
            if task.state != TaskState.READY:
                # failed terminally earlier in this very loop
                self._ready.discard(task)
                continue
            if not self._inputs_obtainable(task):
                before = len(self._ready)
                waiting = self._recover_lost_inputs(task)
                recovered |= len(self._ready) > before
                if task.state == TaskState.READY:
                    # every missing input now has a live producer:
                    # no pump can place the task before they all
                    # deliver or one ends, so it costs none until then
                    self._park(entry, waiting)
                continue
            key = task.library_name if isinstance(task, FunctionCall) else None
            wid = self.scheduler.choose_worker_indexed(task, get_index(key))
            if wid is None:
                failures += 1
                stash.append(entry)
                if failures >= 64:
                    break
                continue
            self._ready.discard(task)
            self._dispatch(task, wid)
            for k, idx in index_cache.items():
                idx.update(wid, self._view_of(wid, k))
    finally:
        entries.close()  # returns mid-loop pushes to the heap
        for entry in stash:
            self._ready.restore(entry)
    return recovered
