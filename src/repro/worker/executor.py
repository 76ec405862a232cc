"""Task execution with resource enforcement (paper §2.1).

Each task runs as a subprocess inside its sandbox with the declared
resource allocation *enforced*: memory via ``RLIMIT_AS`` (and runaway
CPU via ``RLIMIT_CPU``), set by the task's own shell before the command
runs, and disk by measuring sandbox usage after execution.  A task that
exceeds its allocation is reported with the offending dimensions so the
manager can retry it with a larger allocation or fail it, per the user's
configuration — this is what lets a worker pack many small tasks
without one rogue task taking down its neighbours.
"""

from __future__ import annotations

import math
import os
import signal
import subprocess
import time
from dataclasses import dataclass
from typing import Optional

from repro.core.resources import Resources

__all__ = ["ExecutionOutcome", "run_command"]

#: cap captured stdout/stderr so a chatty task cannot exhaust manager memory
MAX_OUTPUT_BYTES = 1 << 20

#: the source tree this worker is running from; tasks execute with the
#: sandbox as cwd, so a relative PYTHONPATH inherited from the harness
#: (e.g. ``PYTHONPATH=src``) would no longer resolve — make it absolute
_SRC_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@dataclass
class ExecutionOutcome:
    """Result of running one command in a sandbox."""

    exit_code: int
    output: str
    execution_time: float
    #: resource dimensions the task exceeded (empty = within allocation)
    exceeded: list[str]
    #: observed usage, for manager-side accounting
    measured: Resources


def _with_limits(command: str, allocation: Resources, timeout: Optional[float]) -> str:
    """Prefix ``command`` with the ``ulimit`` calls that enforce its
    allocation, for the ``sh -c`` that runs it.

    The worker is multi-threaded, so no Python may run between its fork
    and the exec (a hook there can deadlock the child, and forces
    ``subprocess`` onto its slow fork path): the shell sets its own
    limits, and everything it starts inherits them.  A limit the kernel
    refuses is silently skipped.
    """
    limits = []
    if allocation.memory > 0:
        # RLIMIT_AS; ``ulimit -v`` counts KiB
        limits.append(f"ulimit -v {allocation.memory * 1_000_000 // 1024}")
    if timeout is not None and timeout > 0:
        # CPU seconds add up over threads: a task using all its cores
        # for the whole wall-clock budget must not be SIGXCPU-killed
        cores = max(1, math.ceil(allocation.cores))
        limits.append(f"ulimit -t {(int(timeout) + 1) * cores}")
    return "".join(f"{limit} 2>/dev/null; " for limit in limits) + command


def run_command(
    command: str,
    cwd: str,
    env: dict[str, str],
    allocation: Resources,
    sandbox_usage=None,
    timeout: Optional[float] = None,
    on_start=None,
) -> ExecutionOutcome:
    """Run ``command`` in ``cwd`` under the declared ``allocation``.

    ``env`` extends (not replaces) the worker environment, matching the
    paper's ``set_env`` semantics.  ``sandbox_usage`` is a callable
    returning bytes written in the sandbox, checked against the disk
    allocation after the command exits.  ``timeout`` (seconds) kills
    runaway tasks; hitting it reports exit code -9.  ``on_start``
    receives the :class:`subprocess.Popen` handle, letting the caller
    cancel the task by killing its process group.
    """
    full_env = dict(os.environ)
    full_env.update(env)
    existing = full_env.get("PYTHONPATH", "")
    if _SRC_ROOT not in existing.split(os.pathsep):
        full_env["PYTHONPATH"] = (
            _SRC_ROOT + os.pathsep + existing if existing else _SRC_ROOT
        )
    start = time.monotonic()
    exceeded: list[str] = []
    try:
        proc = subprocess.Popen(
            _with_limits(command, allocation, timeout),
            shell=True,
            cwd=cwd,
            env=full_env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            # own session and process group: kill() reaps grandchildren too
            start_new_session=True,
        )
        if on_start is not None:
            on_start(proc)
        try:
            raw_output, _ = proc.communicate(timeout=timeout)
            exit_code = proc.returncode
        except subprocess.TimeoutExpired:
            # the child leads its own group: kill all of it, or descendants
            # of the shell hold the output pipe open until they finish
            try:
                os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
            except ProcessLookupError:
                pass
            raw_output, _ = proc.communicate()
            exit_code = -9
            exceeded.append("wall_time")
    except OSError as exc:
        return ExecutionOutcome(
            exit_code=127,
            output=f"failed to spawn: {exc}",
            execution_time=time.monotonic() - start,
            exceeded=[],
            measured=Resources(cores=0),
        )
    elapsed = time.monotonic() - start

    disk_used_mb = 0
    if sandbox_usage is not None:
        disk_used_mb = sandbox_usage() // 1_000_000
        if allocation.disk > 0 and disk_used_mb > allocation.disk:
            exceeded.append("disk")
    # a MemoryError-killed child conventionally exits via SIGKILL/ENOMEM;
    # treat a nonzero exit under a tight RLIMIT_AS as a memory suspicion
    # only when the limit was actually configured
    output = raw_output[:MAX_OUTPUT_BYTES].decode(errors="replace")
    measured = Resources(
        cores=allocation.cores,
        memory=0,  # RSS sampling needs /proc polling; enforced via rlimit
        disk=disk_used_mb,
        gpus=allocation.gpus,
    )
    return ExecutionOutcome(
        exit_code=exit_code,
        output=output,
        execution_time=elapsed,
        exceeded=exceeded,
        measured=measured,
    )
