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

import importlib
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - static tools see the eager names
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


def _lazy(package: str, origin: dict[str, str]):
    """``__getattr__`` and ``__dir__`` for a package whose public names
    (``origin``: name -> the module that defines it) are imported the
    first time they are read (PEP 562) and then kept in its namespace."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(origin[name]), name)
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__


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

#: the module each public name lives in: ``import repro`` loads none of
#: them, so a worker or a client process pays only for its own layer,
#: and a name's module is imported the first time the name is read
_ORIGIN = {
    "BufferFile": "repro.core.files",
    "CacheLevel": "repro.core.files",
    "File": "repro.core.files",
    "FunctionCall": "repro.core.library",
    "Library": "repro.core.library",
    "LibraryTask": "repro.core.library",
    "LocalFile": "repro.core.files",
    "Manager": "repro.core.manager",
    "ManagerError": "repro.core.manager",
    "MiniTask": "repro.core.task",
    "MiniTaskFile": "repro.core.files",
    "Policy": "repro.core.policy",
    "PythonTask": "repro.core.task",
    "Resources": "repro.core.resources",
    "Task": "repro.core.task",
    "TaskResult": "repro.core.task",
    "TaskState": "repro.core.task",
    "TempFile": "repro.core.files",
    "URLFile": "repro.core.files",
}

__getattr__, __dir__ = _lazy(__name__, _ORIGIN)
