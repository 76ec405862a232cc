"""What one task costs the manager, counted in calls — never timed.

Every task crosses the manager on two paths:

* **submit**: ``Task``, three times ``declare_temp`` + ``add_output``,
  and ``Manager.submit`` on the application thread, which name, stamp
  and post; then the reactor applying what was posted (the plane's
  declares and admission);
* **completion → dispatch**, on the reactor: a worker's report of the
  attempt through ``ControlPlane.attempt_ended``, then the sweep's one
  pump, which places the next task.  It is driven here through the
  ``FakePort`` of ``test_control_plane``: 16 workers of 4 cores, noop
  tasks with three temp outputs, every report of a sweep handled before
  its pump (as the reactor does).

Each path is run under ``sys.setprofile`` on every thread it crosses,
which counts Python calls (a frame entered, a generator resumed) and
builtin calls (a C function called).  Counts do not depend on the
machine, so a slow one cannot fail these tests and a regression cannot
hide behind a fast one.  Run with ``-s`` to see the figures; DESIGN.md
("What one task costs the manager") keeps them per release.
"""

import sys

from repro.core.files import TempFile
from repro.core.manager import Manager
from repro.core.task import Task, TaskResult
from tests.core.test_control_plane import add_worker, make_control
from tests.reactor_owner import on_reactor

TASKS = 2000
OUTPUTS = 3

#: Python calls per task, and builtin calls per task, on each path.  The
#: Python bounds sit well below what the code before these budgets cost
#: (145.6 on the plane, 82.0 on submit); the builtin bounds are what it
#: cost (137.6 and 86.0), so no cut in one kind of call is paid for in
#: the other.
PLANE_PYTHON_CALLS = 110
PLANE_BUILTIN_CALLS = 137
SUBMIT_PYTHON_CALLS = 66
SUBMIT_BUILTIN_CALLS = 86


def _profiler():
    """A profile function and the counts it keeps (one per thread)."""
    counts = {"call": 0, "c_call": 0}

    def profile(_frame, event, _arg):
        if event in counts:
            counts[event] += 1

    return counts, profile


def _count_calls(fn) -> tuple[float, float]:
    """Python and builtin calls per task that ``fn()`` makes."""
    counts, profile = _profiler()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts["call"] / TASKS, counts["c_call"] / TASKS


def test_completion_to_dispatch_on_the_plane_stays_in_budget():
    port, control = make_control()
    for i in range(16):
        add_worker(port, control, f"w{i:02d}", cores=4)
    produced, results = {}, {}
    for i in range(TASKS):
        task = Task("noop")
        for k in range(OUTPUTS):
            f = TempFile()
            f.cache_name = f"temp-{i}-{k}"
            control.declare(f)
            task.add_output(f, f"out{k}")
        control.submit(task)
        produced[task.task_id] = [(f.cache_name, 10) for _, f in task.outputs]
        results[task.task_id] = TaskResult(exit_code=0)
    control.pump()

    def drain():
        started = port.started
        while started:
            sweep = started[:]
            started.clear()
            for task in sweep:
                tid = task.task_id
                control.attempt_ended(
                    task.worker_id, tid, results[tid], produced[tid]
                )
            control.pump()

    python, builtin = _count_calls(drain)
    print(f"\nplane completion -> dispatch: {python:.1f} Python, "
          f"{builtin:.1f} builtin calls per task")
    assert control.done_count == TASKS
    assert python <= PLANE_PYTHON_CALLS, python
    assert builtin <= PLANE_BUILTIN_CALLS, builtin


def test_submit_on_the_application_thread_stays_in_budget():
    """Counted on both threads the submit crosses: the application
    thread, and the reactor's sweeps (what it applies from the inbox,
    and the pumps and wake-ups the burst costs it)."""
    m = Manager()
    try:
        m.submit(Task("noop"))  # warm-up
        loop, profile = _profiler()
        on_reactor(m, sys.setprofile, profile)

        def submit_all():
            for _ in range(TASKS):
                task = Task("noop")
                for k in range(OUTPUTS):
                    task.add_output(m.declare_temp(), f"out{k}")
                m.submit(task)

        app_python, app_builtin = _count_calls(submit_all)
        # a round trip: the reactor stops counting after every post above
        on_reactor(m, sys.setprofile, None)
    finally:
        m.close()
    python = app_python + loop["call"] / TASKS
    builtin = app_builtin + loop["c_call"] / TASKS
    print(f"\nsubmit: {python:.1f} Python, {builtin:.1f} builtin calls per "
          f"task ({app_python:.1f} and {app_builtin:.1f} of them on the "
          f"application thread)")
    assert python <= SUBMIT_PYTHON_CALLS, python
    assert builtin <= SUBMIT_BUILTIN_CALLS, builtin
