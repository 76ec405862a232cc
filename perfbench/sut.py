"""The system under test, as the benchmark sees it.

Every ``repro`` import, constructor argument and CLI flag perfbench uses
is named here and nowhere else, so a refactor can read off exactly what
it must keep (``python -m perfbench check-surface`` reports anything
missing by name).  Symbols resolve lazily on first attribute access:
``sut.Manager`` imports ``repro.core.manager`` only when a workload
needs it, and ``check_surface`` can list *every* missing name instead
of dying on the first ImportError.

Nothing private and none of the legacy twins ROADMAP item 2 deletes
(``network="threads"``, ``inline_call_results``, ``fair_share=False``,
``Scheduler.choose_worker``) appear below.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

if not os.path.isdir(os.path.join(SRC, "repro")):
    # a bare checkout of the benchmark has nothing to measure
    sys.exit("perfbench: src/repro not found next to perfbench/; nothing to measure")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

#: entry points launched as ``python -m <module>``
DAEMON_MODULE = "repro.service.daemon"
WORKER_MODULE = "repro.worker.cli"

#: alias -> "module:attribute"; ``sut.<alias>`` resolves through this
SYMBOLS = {
    # real runtime, library mode
    "Manager": "repro.core.manager:Manager",
    "Task": "repro.core.task:Task",
    "TaskState": "repro.core.task:TaskState",
    "TaskResult": "repro.core.task:TaskResult",
    "Resources": "repro.core.resources:Resources",
    "ScriptedWorker": "repro.worker.scripted:ScriptedWorker",
    # service mode
    "ServiceClient": "repro.service.client:ServiceClient",
    "ClientError": "repro.service.client:ClientError",
    "daemon_main": "repro.service.daemon:main",
    # simulator
    "SimCluster": "repro.sim.cluster:SimCluster",
    "SimManager": "repro.sim.simmanager:SimManager",
    "SimRunStats": "repro.sim.simmanager:SimRunStats",
    "StreamingResult": "repro.sim.workloads:StreamingResult",
    "blast_cluster": "repro.sim.workloads:blast_cluster",
    "blast_workflow": "repro.sim.workloads:blast_workflow",
    "streaming_genome_workload": "repro.sim.workloads:streaming_genome_workload",
    "Simulation": "repro.sim.engine:Simulation",
    "Network": "repro.sim.network:Network",
    # layers timed by layers.py and shimmed by trace.py
    "encode_frame": "repro.protocol.connection:encode_frame",
    "Connection": "repro.protocol.connection:Connection",
    "FrameReassembler": "repro.protocol.connection:FrameReassembler",
    "BatchSender": "repro.protocol.batching:BatchSender",
    "ser": "repro.protocol:serialization",
    "Journal": "repro.core.journal:Journal",
    "ControlPlane": "repro.core.control_plane:ControlPlane",
    "Scheduler": "repro.core.scheduler:Scheduler",
    "PlacementIndex": "repro.core.scheduler:PlacementIndex",
    "ReadyQueue": "repro.core.scheduler:ReadyQueue",
    "WorkerView": "repro.core.scheduler:WorkerView",
    "ReplicaTable": "repro.core.replica_table:ReplicaTable",
    "TransferTable": "repro.core.transfer_table:TransferTable",
    "ResourcePool": "repro.core.resources:ResourcePool",
    "BufferFile": "repro.core.files:BufferFile",
    "CacheLevel": "repro.core.files:CacheLevel",
    "Namer": "repro.core.naming:Namer",
    "directory_merkle": "repro.core.naming:directory_merkle",
    "task_merkle": "repro.core.naming:task_merkle",
    "EventLog": "repro.core.events:EventLog",
    "Event": "repro.core.events:Event",
    "EVENT_KINDS": "repro.core.events:KINDS",
    "TransactionLogWriter": "repro.observe.txnlog:TransactionLogWriter",
    "read_transactions": "repro.observe.txnlog:read_transactions",
    "MetricsRegistry": "repro.observe.metrics:MetricsRegistry",
    "MemoStore": "repro.memo.store:MemoStore",
    "MemoOutput": "repro.memo.store:MemoOutput",
    "Sandbox": "repro.worker.sandbox:Sandbox",
    "WorkerCache": "repro.worker.cache:WorkerCache",
    "run_command": "repro.worker.executor:run_command",
}

#: attributes (methods, properties, dataclass fields) used on those symbols
MEMBERS = {
    "Manager": (
        "submit wait close declare_temp declare_local declare_untar now "
        "workers log metrics host port"
    ),
    "Task": "add_input add_output task_id state result worker_id seq",
    "TaskState": "DONE",
    "TaskResult": "exit_code ok",
    "ScriptedWorker": "close",
    "ServiceClient": "create_library call wait result_proxy close results",
    "SimCluster": "add_workers",
    "SimManager": "metrics",
    "SimRunStats": "makespan tasks_done log transfer_counts bytes_by_source",
    "StreamingResult": "stats outputs job_completions arrival_times",
    "FrameReassembler": "feed next_item expect_bytes",
    "Connection": "connect send_file close",
    "BatchSender": "notice close",
    "Journal": "append replay compact close",
    "ControlPlane": (
        "submit pump worker_joined on_task_result complete_task "
        "on_cache_update on_transfer_complete"
    ),
    "Scheduler": "choose_worker_indexed plan_transfers",
    "ReadyQueue": "push pop_entries discard snapshot_token",
    "ReplicaTable": "add_replica locality_scores",
    "TransferTable": "sources_with_capacity begin",
    "BufferFile": "cache_name",
    "CacheLevel": "WORKER WORKFLOW",
    "Namer": "assign",
    "EventLog": "emit attach events",
    "Event": "time kind task file size category",
    "TransactionLogWriter": "close",
    "MetricsRegistry": "counter histogram snapshot",
    "MemoStore": "get record",
    "Sandbox": "link_inputs harvest_outputs destroy path",
    "WorkerCache": "insert_bytes",
    "Simulation": "schedule run",
    "Network": "add_node start",
    "ser": "dumps loads",
}

#: event kinds read back from the manager's event log / txn log
EVENTS_READ = (
    "task_start", "task_end", "transfer_start", "transfer_end",
    "stage_start", "client_attach",
)

#: instrument names read from metrics snapshots (manager, daemon dump,
#: workers' own ``metrics.json``); created at run time, so not checkable
#: statically — a rename shows up as a per-layer metric stuck at 0 and,
#: for ``tasks_done``, as a failed dispatch_storm oracle
METRICS_READ = (
    "tenant.default.tasks_done", "sched.candidates_scored",
    "net.reactor_loop_seconds", "net.frames_in", "net.messages_in",
    "net.batch_fill", "cache.hits", "cache.misses", "transfers.in_flight",
    "sandbox.setup_seconds", "task.execution_seconds", "library.invoke_seconds",
)

#: files read from the daemon's ``--state-dir``
STATE_FILES = ("service.json", "service.jsonl", "metrics.json", "worker-*/metrics.json")

#: keyword arguments passed to constructors / functions (all others default)
KWARGS = {
    "ScriptedWorker": "cores",
    "ServiceClient": "timeout",
    "SimManager": "seed",
    "Journal": "fsync",
    "BatchSender": "metrics",
    "Namer": "seed",
    "Resources": "cores memory disk",
    "WorkerView": "worker_id capacity",
    "TaskResult": "exit_code",
    "blast_workflow": "n_tasks seed",
    "streaming_genome_workload": "n_jobs fanout mean_interarrival seed",
    "TransactionLogWriter": "runtime",
}

#: CLI flags passed to the entry points (everything else is default)
CLI_FLAGS = {
    DAEMON_MODULE: ("run", "--state-dir", "--workers", "--cores"),
    WORKER_MODULE: ("--manager", "--workdir", "--cores"),
}


def _resolve(spec: str):
    module, _, attr = spec.partition(":")
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def __getattr__(name: str):
    try:
        spec = SYMBOLS[name]
    except KeyError:
        raise AttributeError(f"perfbench.sut names no symbol {name!r}") from None
    obj = globals()[name] = _resolve(spec)
    return obj


def child_env() -> dict:
    """Environment for SUT subprocesses: ``src`` (and the benchmark's own
    package, for the traced launchers) importable, nothing else changed."""
    env = dict(os.environ)
    extra = [SRC, REPO]
    if env.get("PYTHONPATH"):
        extra.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(extra)
    return env


def daemon_argv(state_dir: str, workers: int, cores: int, traced: bool) -> list[str]:
    """The service daemon with its defaults (journal, txn log, metrics
    dump, fair share all on); a traced run goes through perfbench's
    launcher, which installs the timing shims and then calls the same
    ``main``."""
    module = "perfbench.traced_daemon" if traced else DAEMON_MODULE
    return [
        sys.executable, "-m", module, "run",
        "--state-dir", state_dir, "--workers", str(workers), "--cores", str(cores),
    ]


def worker_argv(host: str, port: int, workdir: str, cores: int) -> list[str]:
    return [
        sys.executable, "-m", WORKER_MODULE,
        "--manager", f"{host}:{port}", "--workdir", workdir, "--cores", str(cores),
    ]


def check_surface() -> list[str]:
    """Names of everything listed above that the checkout no longer has."""
    missing = []
    resolved = {}
    for alias, spec in SYMBOLS.items():
        try:
            resolved[alias] = _resolve(spec)
        except (ImportError, AttributeError):
            missing.append(spec)
    for alias, members in MEMBERS.items():
        obj = resolved.get(alias)
        if obj is None:
            continue
        # instance attributes (Manager.host, dataclass fields, ...) exist
        # only on instances: accept a field, or an assignment to
        # ``self.<member>`` anywhere in the class or its bases
        known = set()
        source = ""
        if inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                known = {f.name for f in dataclasses.fields(obj)}
            for base in obj.__mro__[:-1]:
                try:
                    source += inspect.getsource(base)
                except (OSError, TypeError):
                    pass
        for member in members.split():
            if not (
                hasattr(obj, member) or member in known or f"self.{member}" in source
            ):
                missing.append(f"{SYMBOLS[alias]}.{member}")
    for kind in EVENTS_READ:
        if kind not in resolved.get("EVENT_KINDS", EVENTS_READ):
            missing.append(f"event kind {kind!r}")
    for alias, names in KWARGS.items():
        obj = resolved.get(alias)
        if obj is None:
            continue
        params = inspect.signature(obj).parameters
        for name in names.split():
            if name not in params:
                missing.append(f"{SYMBOLS[alias]}({name}=)")
    for module, flags in CLI_FLAGS.items():
        argv = [sys.executable, "-m", module]
        if flags[0] == "run":
            argv.append("run")
        proc = subprocess.run(
            argv + ["--help"], env=child_env(), capture_output=True, text=True
        )
        for flag in flags:
            if flag.startswith("--") and flag not in proc.stdout:
                missing.append(f"python -m {module} {flag}")
        if proc.returncode != 0:
            missing.append(f"python -m {module} --help")
    return missing
