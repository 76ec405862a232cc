"""repro — a reproduction of TaskVine (SC-W 2023).

TaskVine is a workflow execution system that manages data within a
cluster: declared, immutable files with content-addressable names;
workers with persistent local caches; a manager that schedules tasks to
data and supervises peer-to-peer transfers; mini tasks for on-demand
data transformation; and a serverless library/function-call model.

Two runtimes share one policy core:

* the **real runtime** (:class:`Manager` + ``repro-worker`` processes)
  executes actual commands on one machine, and
* the **simulator** (:class:`~repro.sim.cluster.SimCluster` +
  :class:`~repro.sim.simmanager.SimManager`) replays the same policies
  over a virtual cluster for the paper's at-scale experiments.

Quickstart (see ``examples/quickstart.py`` for a complete script)::

    import repro

    m = repro.Manager()
    # ... start repro-worker processes pointed at m.host:m.port ...
    data = m.declare_buffer(b"hello")
    task = repro.Task("tr a-z A-Z < input > output")
    task.add_input(data, "input")
    task.add_output(m.declare_temp(), "output")
    m.submit(task)
    done = m.wait(timeout=30)
"""

from repro.core.files import (
    BufferFile,
    CacheLevel,
    File,
    LocalFile,
    MiniTaskFile,
    TempFile,
    URLFile,
)
from repro.core.library import FunctionCall, Library, LibraryTask
from repro.core.manager import Manager, ManagerError
from repro.core.policy import Policy
from repro.core.resources import Resources
from repro.core.task import MiniTask, PythonTask, Task, TaskResult, TaskState

__all__ = [
    "BufferFile",
    "CacheLevel",
    "File",
    "FunctionCall",
    "Library",
    "LibraryTask",
    "LocalFile",
    "Manager",
    "ManagerError",
    "MiniTask",
    "MiniTaskFile",
    "Policy",
    "PythonTask",
    "Resources",
    "Task",
    "TaskResult",
    "TaskState",
    "TempFile",
    "URLFile",
]

__version__ = "1.0.0"
