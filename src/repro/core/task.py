"""Task declarations: the execution half of a TaskVine workflow.

A plain :class:`Task` is a Unix command line executed in a private
sandbox (paper §2.4).  Every file it consumes or produces must be
explicitly attached with :meth:`Task.add_input` / :meth:`Task.add_output`
under the user-visible name the command expects; the worker links cache
objects into the sandbox under those names.

:class:`PythonTask` specializes a task to run a serialized Python
function; :class:`MiniTask` wraps a task as a file-producing
transformation (see :func:`repro.core.manager.Manager.declare_minitask`);
serverless types live in :mod:`repro.core.library`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.files import File
from repro.core.resources import Resources

__all__ = ["TaskState", "TaskResult", "Task", "PythonTask", "MiniTask"]


class TaskState(enum.Enum):
    """Lifecycle of a task as tracked by the manager."""

    #: constructed but not yet submitted to a manager
    CREATED = "created"
    #: submitted; waiting for inputs to be schedulable
    READY = "ready"
    #: assigned to a worker; inputs being staged
    DISPATCHED = "dispatched"
    #: executing in a sandbox at the worker
    RUNNING = "running"
    #: finished at the worker; outputs awaiting retrieval/registration
    WAITING_RETRIEVAL = "waiting_retrieval"
    #: complete, outputs accounted for
    DONE = "done"
    #: terminally failed (after any retries)
    FAILED = "failed"
    #: cancelled by the application
    CANCELLED = "cancelled"


#: task states from which no further transition occurs
TERMINAL_STATES = frozenset({TaskState.DONE, TaskState.FAILED, TaskState.CANCELLED})


@dataclass
class TaskResult:
    """Outcome of one task execution attempt."""

    exit_code: int = -1
    #: captured standard output (command tasks) or repr of return value
    output: str = ""
    #: error category when the task did not complete normally
    failure: Optional[str] = None
    #: resources actually observed during execution (if monitored)
    measured: Optional[Resources] = None
    #: wall-clock seconds spent executing (excludes staging)
    execution_time: float = 0.0
    #: seconds spent staging inputs before execution began
    staging_time: float = 0.0
    #: resource dimensions that exceeded the declared allocation
    exceeded: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True if the attempt completed with a zero exit code."""
        return self.exit_code == 0 and self.failure is None


class Task:
    """A unit of execution bound to explicit inputs and outputs.

    Mutation (adding files, setting resources) is only legal before
    submission; the manager owns the task afterwards.

    Identity is assigned *at submission* by the owning manager's
    control plane: ``task_id`` (``t<N>``) and the monotonic dispatch
    sequence number ``seq`` both come from a per-manager counter, so
    two managers in one process issue identical id streams — the
    property the fixed-seed chaos-replay tests depend on.  Before
    submission ``task_id`` is None and ``seq`` is 0.
    """

    #: attach token of the remote client session that submitted the task
    #: (journaled, so a restarted manager routes its outcome back)
    session_token: Optional[str] = None
    #: simulator only, set at submit: virtual seconds one execution
    #: takes, and the produced size of each output by sandbox name
    sim_duration: Optional[float] = None
    sim_output_sizes: Optional[dict[str, int]] = None

    def __init__(self, command: str) -> None:
        self.task_id: Optional[str] = None
        #: monotonic FIFO sequence assigned at submit; the scheduler
        #: orders ready tasks by ``(-priority, seq)``
        self.seq: int = 0
        self.command = command
        #: ``(sandbox_name, File)`` pairs, in attachment order
        self.inputs: list[tuple[str, File]] = []
        self.outputs: list[tuple[str, File]] = []
        self.env: dict[str, str] = {}
        self.resources = Resources(cores=1)
        #: False until the application sizes the task explicitly; lets
        #: the manager's category learning pick first allocations
        self.resources_explicit = False
        #: times the manager may re-execute after a resource-exceeded
        #: or worker-loss failure (paper §2.1 retry policy)
        self.max_retries: int = 1
        self.retries_used: int = 0
        #: multiplier applied to the allocation on a resource-exceeded retry
        self.retry_resource_growth: float = 2.0
        self.priority: float = 0.0
        #: free-form label grouping similar tasks in traces
        self.category: str = "default"
        #: owning tenant in service mode; quota accounting and the
        #: fair-share ready queue key off this ("default" = single-tenant)
        self.tenant: str = "default"
        #: the application's assertion that this task is a pure function
        #: of its declared inputs — the gate for result memoization.
        #: Impure tasks (clocks, randomness, network) must stay False.
        self.deterministic: bool = False
        #: task-spec Merkle hash, stamped at submit for memo-eligible
        #: tasks (see :func:`repro.core.naming.task_merkle`)
        self.merkle: Optional[str] = None
        self.state = TaskState.CREATED
        self.result: Optional[TaskResult] = None
        #: worker id the task is (or was last) placed on
        self.worker_id: Optional[str] = None
        #: earliest re-placement time after a requeue backoff (0 = now)
        self.not_before: float = 0.0
        #: virtual/wall timestamps filled in by the runtimes for traces
        self.submitted_at: Optional[float] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    # -- declaration-time mutators ------------------------------------

    def _check_mutable(self) -> None:
        if self.state != TaskState.CREATED:
            raise RuntimeError(f"task {self.task_id} already submitted")

    def add_input(self, f: File, sandbox_name: str) -> "Task":
        """Attach ``f`` to appear in the sandbox as ``sandbox_name``."""
        self._check_mutable()
        if any(name == sandbox_name for name, _ in self.inputs):
            raise ValueError(f"duplicate input name {sandbox_name!r}")
        self.inputs.append((sandbox_name, f))
        return self

    def add_output(self, f: File, sandbox_name: str) -> "Task":
        """Declare that the command produces ``sandbox_name``; its content
        becomes file ``f`` after completion."""
        self._check_mutable()
        if any(name == sandbox_name for name, _ in self.outputs):
            raise ValueError(f"duplicate output name {sandbox_name!r}")
        self.outputs.append((sandbox_name, f))
        return self

    def set_env(self, key: str, value: str) -> "Task":
        """Set an environment variable for the task's execution."""
        self._check_mutable()
        self.env[key] = str(value)
        return self

    #: alias matching the paper's Fig. 3 listing (``t.add_env(...)``)
    add_env = set_env

    @property
    def pool_request(self) -> Resources:
        """What placing this task takes from a worker's resource pool."""
        return self.resources

    def set_resources(self, resources: Resources) -> "Task":
        """Declare the full resource allocation for this task."""
        self._check_mutable()
        self.resources = resources
        self.resources_explicit = True
        return self

    def set_cores(self, cores: float) -> "Task":
        """Convenience: adjust only the cores dimension."""
        self._check_mutable()
        self.resources = Resources(
            cores=cores,
            memory=self.resources.memory,
            disk=self.resources.disk,
            gpus=self.resources.gpus,
        )
        self.resources_explicit = True
        return self

    def set_category(self, category: str) -> "Task":
        """Label this task for grouping in traces and figures."""
        self._check_mutable()
        self.category = category
        return self

    def set_priority(self, priority: float) -> "Task":
        """Higher priority tasks are considered for dispatch first."""
        self._check_mutable()
        self.priority = priority
        return self

    def set_tenant(self, tenant: str) -> "Task":
        """Attribute this task to a tenant for fair-share and quotas."""
        self._check_mutable()
        self.tenant = tenant
        return self

    def set_deterministic(self, flag: bool = True) -> "Task":
        """Assert the task is a pure function of its declared inputs.

        Only deterministic tasks are eligible for result memoization:
        an identical (command, input-content, resources, env) submission
        may then complete from a recorded result without executing.
        """
        self._check_mutable()
        self.deterministic = bool(flag)
        return self

    # -- views ---------------------------------------------------------

    def input_files(self) -> list[File]:
        """The attached input file handles, in attachment order."""
        return [f for _, f in self.inputs]

    def output_files(self) -> list[File]:
        """The attached output file handles, in attachment order."""
        return [f for _, f in self.outputs]

    def input_cache_names(self) -> list[str]:
        """Cache names of all inputs (requires naming to have run)."""
        names = []
        for _, f in self.inputs:
            if f.cache_name is None:
                raise RuntimeError(
                    f"input {f.file_id} of {self.task_id or self.command!r} unnamed"
                )
            names.append(f.cache_name)
        return names

    def value_output(self) -> Optional[File]:
        """The output whose content is the *value* the application reads
        back from the task object (``output()``), which the manager must
        therefore bring home; None when results live in files only."""
        return None

    @property
    def is_done(self) -> bool:
        """True once the task reached a terminal state."""
        return self.state in TERMINAL_STATES

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tid = self.task_id or "<unsubmitted>"
        return f"<Task {tid} {self.state.value} {self.command[:40]!r}>"


class PythonTask(Task):
    """A task that executes a Python function at the worker.

    The function, its arguments, and enough of its globals/closure are
    serialized (:mod:`repro.protocol.serialization`) and shipped as an
    input buffer; a runner module deserializes and invokes it, writing
    the pickled return value to an output file which the manager
    retrieves.  Use :meth:`output` after completion for the value.
    """

    #: sandbox names used by the runner protocol
    PAYLOAD_NAME = "pytask_payload.bin"
    RESULT_NAME = "pytask_result.bin"

    def __init__(self, func: Callable, *args: Any, **kwargs: Any) -> None:
        import sys

        super().__init__(
            f"{sys.executable} -m repro.worker.pytask_runner "
            f"{self.PAYLOAD_NAME} {self.RESULT_NAME}"
        )
        self.func = func
        self.args = args
        self.kwargs = kwargs
        self.category = "python"
        #: deserialized return value, set on retrieval
        self._output: Any = None
        self._output_set = False

    def set_output_value(self, value: Any) -> None:
        """Record the function's return value (called by the manager)."""
        self._output = value
        self._output_set = True

    def value_output(self) -> Optional[File]:
        # the result envelope the manager attaches at submit
        return next((f for n, f in self.outputs if n == self.RESULT_NAME), None)

    def output(self) -> Any:
        """Return value of the function; raises if not yet complete."""
        if not self._output_set:
            raise RuntimeError(f"python task {self.task_id} has no output yet")
        return self._output


class MiniTask(Task):
    """A task executed on demand at a worker to materialize a file.

    A mini task has exactly one logical output — the file object that
    :func:`repro.core.manager.Manager.declare_minitask` wraps around it.
    Its execution is implicit: whenever a worker needs the produced
    file, the worker runs the mini task locally (inputs fetched first),
    and the result enters the cache under the spec-hash name.
    """

    def __init__(self, command: str) -> None:
        super().__init__(command)
        self.category = "mini"
        #: the sandbox path the command writes its product to
        self.output_name: str = "output"

    def set_output_name(self, name: str) -> "MiniTask":
        """Name the sandbox path the command writes its product to."""
        self._check_mutable()
        self.output_name = name
        return self
