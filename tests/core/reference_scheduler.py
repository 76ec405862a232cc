"""Reference scheduler: the brute-force decisions production is checked against.

``choose_worker`` and ``order_ready`` were ``Scheduler`` methods until
the indexed pump replaced them; they live here, bodies unchanged, as the
oracle of ``test_scheduler_equivalence.py`` and
``test_scheduler_properties.py``.  Production code never imports this
module.
"""

from typing import Mapping, Optional, Sequence

from repro.core.scheduler import Scheduler, WorkerView
from repro.core.task import Task


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
