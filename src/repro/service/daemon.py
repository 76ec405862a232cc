"""``repro-service run|status|stop``: the service-mode daemon lifecycle.

A TigerFlow-style always-on manager: ``run`` starts one multi-tenant
:class:`~repro.core.manager.Manager` (optionally daemonized with
``--detach``), spawns a local worker fleet, and serves client sessions
until a SIGTERM; ``status`` reports liveness, the replayed transaction
log, and the per-tenant accounting table; ``stop`` signals the daemon
and waits for a clean exit.

All run state lives under one ``--state-dir``:

* ``service.json`` — pid, endpoint, project name (written on start,
  removed on clean shutdown; its presence + a live pid = running)
* ``service.jsonl`` — the streaming transaction log
* ``metrics.json`` — periodic metrics snapshots (tenant table source)
* ``service.log`` — daemon stdout/stderr when detached
* ``worker-N/`` — workdirs of the locally spawned workers
* ``journal/`` — the manager's durable control-plane journal
  (``snapshot.json`` + ``journal.log``); a restarted daemon replays it,
  reuses the recorded port, and resumes in-flight workflows (see
  ``docs/recovery.md``)

``run --supervise`` wraps the whole thing in a tiny supervisor that
restarts the service child whenever it dies abnormally, turning a
manager crash into a recovery instead of an outage.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Optional

__all__ = ["main"]

STATE_FILE = "service.json"
TXN_LOG = "service.jsonl"
METRICS_FILE = "metrics.json"
JOURNAL_DIR = "journal"


def _read_state(state_dir: str) -> Optional[dict]:
    try:
        with open(os.path.join(state_dir, STATE_FILE)) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _daemonize(log_path: str) -> None:
    """Classic double-fork detach; the intermediate parents exit 0."""
    if os.fork() > 0:
        os._exit(0)
    os.setsid()
    if os.fork() > 0:
        os._exit(0)
    sys.stdout.flush()
    sys.stderr.flush()
    log_fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    null_fd = os.open(os.devnull, os.O_RDONLY)
    os.dup2(null_fd, 0)
    os.dup2(log_fd, 1)
    os.dup2(log_fd, 2)
    os.close(null_fd)
    os.close(log_fd)


def _spawn_worker(
    state_dir: str,
    index: int,
    host: str,
    port: int,
    cores: float,
    reconnect: float = 0.0,
) -> subprocess.Popen:
    workdir = os.path.join(state_dir, f"worker-{index}")
    os.makedirs(workdir, exist_ok=True)
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.worker.cli",
            "--manager",
            f"{host}:{port}",
            "--workdir",
            workdir,
            "--cores",
            str(cores),
            "--reconnect",
            str(reconnect),
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _supervise(args: argparse.Namespace, argv: list[str]) -> int:
    """Restart the service child whenever it dies abnormally.

    The child is this same CLI minus ``--supervise``/``--detach``; it
    owns ``service.json`` (so ``status``/``stop`` address the child).
    A clean exit (SIGTERM honored, ``stop``) ends supervision; a crash
    — nonzero exit or a death by signal — triggers a restart, and the
    restarted child recovers from the journal.
    """
    state_dir = os.path.abspath(args.state_dir)
    os.makedirs(state_dir, exist_ok=True)
    if args.detach:
        _daemonize(os.path.join(state_dir, "service.log"))
    child_argv = [a for a in argv if a not in ("--supervise", "--detach")]
    stop = threading.Event()
    child: list[Optional[subprocess.Popen]] = [None]

    def _forward(signum, _frame):
        stop.set()
        proc = child[0]
        if proc is not None and proc.poll() is None:
            proc.send_signal(signal.SIGTERM)

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _forward)
    while True:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service.daemon"] + child_argv
        )
        child[0] = proc
        code = proc.wait()
        if stop.is_set() or code == 0:
            return 0 if code == 0 else code
        print(
            f"repro-service: child exited with {code}; restarting in 1s",
            file=sys.stderr,
        )
        time.sleep(1.0)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.core.manager import Manager
    from repro.core.policy import Policy

    state_dir = os.path.abspath(args.state_dir)
    os.makedirs(state_dir, exist_ok=True)
    state = _read_state(state_dir)
    if state is not None:
        pid = int(state.get("pid", -1))
        if _pid_alive(pid):
            print(
                f"repro-service: already running (pid {state['pid']}, "
                f"port {state.get('port')})",
                file=sys.stderr,
            )
            return 1
        # a stale state file is a crashed prior life: reclaim the state
        # dir and let the journal restore whatever it left behind
        print(f"repro-service: reclaiming state dir (stale pidfile, pid {pid} dead)")
        try:
            os.unlink(os.path.join(state_dir, STATE_FILE))
        except OSError:
            pass

    if args.detach:
        # the child writes service.json once it is listening; the
        # launching shell returns immediately
        _daemonize(os.path.join(state_dir, "service.log"))

    journal_dir = None
    port = args.port
    if not args.no_journal:
        journal_dir = (
            os.path.abspath(args.journal_dir)
            if args.journal_dir
            else os.path.join(state_dir, JOURNAL_DIR)
        )
        if port == 0:
            # reuse the crashed life's port so reconnecting workers and
            # reattaching clients find the restarted manager
            from repro.core.journal import ControlPlaneJournal

            peek = ControlPlaneJournal(journal_dir)
            prior_port = peek.meta.get("port")
            peek.close()
            if prior_port:
                port = int(prior_port)

    def _make_manager(bind_port: int) -> Manager:
        return Manager(
            port=bind_port,
            host=args.host,
            policy=Policy(
                default_task_quota=args.task_quota,
                default_byte_quota=args.byte_quota,
                memo_opt_out=args.memo_opt_out,
            ),
            project_name=args.project,
            password=args.password,
            client_local_root=args.client_local_root,
            client_session_ttl=args.session_ttl,
            txn_log_path=os.path.join(state_dir, TXN_LOG),
            metrics_dump_path=os.path.join(state_dir, METRICS_FILE),
            memo_dir=os.path.abspath(args.memo_dir) if args.memo_dir else None,
            memo_payload_limit=args.memo_payload_limit,
            journal_dir=journal_dir,
            recovery_grace=args.recovery_grace,
        )

    try:
        mgr = _make_manager(port)
    except OSError:
        if port == args.port:
            raise
        # the crashed life's port was taken meanwhile: an ephemeral
        # port still recovers state; only reconnects need re-pointing
        print(
            f"repro-service: prior port {port} unavailable; binding anew",
            file=sys.stderr,
        )
        mgr = _make_manager(args.port)
    if mgr.recovered:
        print(
            f"repro-service: recovered prior state from {journal_dir} "
            f"(grace {args.recovery_grace:.0f}s for workers to rejoin)"
        )
    workers = [
        _spawn_worker(
            state_dir, i, mgr.host, mgr.port, args.cores,
            reconnect=args.worker_reconnect,
        )
        for i in range(args.workers)
    ]
    if args.autoscale:
        from repro.core.autoscale import Autoscaler

        scaler = Autoscaler(
            min_workers=args.min_workers,
            max_workers=args.max_workers,
            tasks_per_worker=args.tasks_per_worker,
            cooldown=2.0 * args.scale_interval,
        )
        spawned = itertools.count(args.workers)

        def autoscale() -> None:
            """Size the local fleet to the ready queue (see
            docs/elasticity.md): the control plane decides, and drains
            what leaves; the processes it asks for are started here."""
            workers[:] = [p for p in workers if p.poll() is None]
            with mgr._lock:
                add, _drained = mgr.control.autoscale_tick(scaler)
            # subprocess launches are slow: do them outside the lock
            for _ in range(add):
                workers.append(
                    _spawn_worker(
                        state_dir, next(spawned), mgr.host, mgr.port, args.cores,
                        reconnect=args.worker_reconnect,
                    )
                )

        mgr.reactor.call_later(
            args.scale_interval, autoscale, every=args.scale_interval
        )
    state_path = os.path.join(state_dir, STATE_FILE)
    with open(state_path, "w") as f:
        json.dump(
            {
                "pid": os.getpid(),
                "host": mgr.host,
                "port": mgr.port,
                "project": args.project,
                "workers": args.workers,
                "memo_dir": os.path.abspath(args.memo_dir) if args.memo_dir else None,
                "started": time.time(),
            },
            f,
        )
    print(f"repro-service: serving project {args.project!r} on {mgr.host}:{mgr.port}")

    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    try:
        stop.wait()
    finally:
        # close() sends SHUTDOWN to connected workers; give the
        # subprocesses a moment to honor it before escalating
        mgr.close(shutdown_workers=True)
        deadline = time.time() + 10
        for proc in workers:
            try:
                proc.wait(timeout=max(0.1, deadline - time.time()))
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()
        try:
            os.unlink(state_path)
        except OSError:
            pass
    print("repro-service: stopped")
    return 0


# ---------------------------------------------------------------------------
# status / stop
# ---------------------------------------------------------------------------


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.observe.cli import format_log_status, format_tenant_table, replay_status
    from repro.observe.txnlog import read_transactions

    state_dir = os.path.abspath(args.state_dir)
    state = _read_state(state_dir)
    if state is None:
        print("repro-service: not running (no state file)")
        return 1
    alive = _pid_alive(int(state.get("pid", -1)))
    uptime = time.time() - float(state.get("started", time.time()))
    print(
        f"repro-service: {'running' if alive else 'dead (stale pidfile)'} "
        f"pid={state.get('pid')} endpoint={state.get('host')}:{state.get('port')} "
        f"project={state.get('project')!r} uptime={uptime:.0f}s"
    )
    log_path = os.path.join(state_dir, TXN_LOG)
    if os.path.exists(log_path):
        header, events = read_transactions(log_path)
        print(format_log_status(replay_status(events, header.get("runtime", "real"))))
    metrics_path = os.path.join(state_dir, METRICS_FILE)
    if os.path.exists(metrics_path):
        try:
            with open(metrics_path) as f:
                payload = json.load(f)
            table = format_tenant_table(payload.get("metrics", {}))
            if table:
                print(table)
        except (OSError, json.JSONDecodeError):
            pass
    return 0 if alive else 1


def _cmd_stop(args: argparse.Namespace) -> int:
    state_dir = os.path.abspath(args.state_dir)
    state = _read_state(state_dir)
    if state is None:
        print("repro-service: not running (no state file)")
        return 0 if args.quiet_missing else 1
    pid = int(state.get("pid", -1))
    if not _pid_alive(pid):
        try:
            os.unlink(os.path.join(state_dir, STATE_FILE))
        except OSError:
            pass
        # nonzero: there was nothing to stop — the service is dead, and
        # the caller should know its last life ended by crash, not stop
        print(f"repro-service: dead (stale pidfile, pid {pid}); cleaned state file")
        return 1
    os.kill(pid, signal.SIGTERM)
    deadline = time.time() + args.timeout
    while time.time() < deadline:
        if not _pid_alive(pid):
            print(f"repro-service: pid {pid} stopped")
            return 0
        time.sleep(0.1)
    print(f"repro-service: pid {pid} did not exit within {args.timeout}s", file=sys.stderr)
    return 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="Always-on multi-tenant manager daemon (run | status | stop)",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run", help="start the service (foreground unless --detach)")
    run.add_argument("--state-dir", default=".repro-service")
    run.add_argument("--host", default="127.0.0.1")
    run.add_argument("--port", type=int, default=0)
    run.add_argument("--project", default="repro")
    run.add_argument("--password", default=None, help="project password clients must present")
    run.add_argument("--workers", type=int, default=2, help="local workers to spawn")
    run.add_argument("--cores", type=float, default=4)
    run.add_argument("--task-quota", type=int, default=None, help="default per-tenant outstanding-task quota")
    run.add_argument("--byte-quota", type=int, default=None, help="default per-tenant declared-bytes quota")
    run.add_argument(
        "--client-local-root",
        default=None,
        help="directory clients' kind=local declarations must resolve inside "
        "(omitted: local declarations over the wire are refused)",
    )
    run.add_argument(
        "--session-ttl",
        type=float,
        default=3600.0,
        help="seconds before an idle detached client session is reaped",
    )
    run.add_argument(
        "--memo-dir",
        default=None,
        help="persistent memoization store directory; deterministic "
        "resubmissions are served from it across runs and tenants "
        "(omitted: memoization off)",
    )
    run.add_argument(
        "--memo-opt-out",
        action="append",
        default=None,
        metavar="TENANT",
        help="tenant excluded from memoization (repeatable)",
    )
    run.add_argument(
        "--memo-payload-limit",
        type=int,
        default=None,
        help="largest output (bytes) retained as a memo payload "
        "(default 16 MiB); bigger outputs stay replica-backed only",
    )
    run.add_argument(
        "--journal-dir",
        default=None,
        help="durable control-plane journal directory "
        "(default: <state-dir>/journal)",
    )
    run.add_argument(
        "--no-journal",
        action="store_true",
        help="run in-memory only: no crash recovery",
    )
    run.add_argument(
        "--recovery-grace",
        type=float,
        default=10.0,
        help="seconds a recovering manager waits for journaled workers "
        "to rejoin before settling unbacked state as replica loss",
    )
    run.add_argument(
        "--worker-reconnect",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="spawn local workers with this reconnect window so they "
        "outlive a manager crash and rejoin the restarted life "
        "(restart with --workers 0 to adopt them instead of spawning "
        "doubles over the same workdirs; 0 = workers exit on "
        "disconnect and fresh spawns re-announce their on-disk caches)",
    )
    run.add_argument(
        "--autoscale",
        action="store_true",
        help="size the local worker fleet to the ready queue: spawn "
        "workers under pressure, gracefully drain the emptiest ones "
        "when idle (replicas migrate before the process exits)",
    )
    run.add_argument(
        "--min-workers", type=int, default=1,
        help="autoscale floor (workers kept even when idle)",
    )
    run.add_argument(
        "--max-workers", type=int, default=8,
        help="autoscale ceiling",
    )
    run.add_argument(
        "--tasks-per-worker", type=float, default=4.0,
        help="autoscale target: ready tasks each worker should absorb",
    )
    run.add_argument(
        "--scale-interval", type=float, default=2.0,
        help="seconds between autoscale evaluations",
    )
    run.add_argument(
        "--supervise",
        action="store_true",
        help="wrap the service in a supervisor that restarts it (with "
        "journal recovery) whenever it dies abnormally",
    )
    run.add_argument("--detach", action="store_true", help="daemonize (state-dir/service.log gets stdout/stderr)")

    status = sub.add_parser("status", help="report daemon liveness and tenant table")
    status.add_argument("--state-dir", default=".repro-service")

    stop = sub.add_parser("stop", help="SIGTERM the daemon and wait for exit")
    stop.add_argument("--state-dir", default=".repro-service")
    stop.add_argument("--timeout", type=float, default=30.0)
    stop.add_argument(
        "--quiet-missing", action="store_true",
        help="exit 0 when no service is running",
    )

    raw_argv = list(argv) if argv is not None else sys.argv[1:]
    args = parser.parse_args(argv)
    if args.cmd == "run":
        if args.supervise:
            return _supervise(args, raw_argv)
        return _cmd_run(args)
    if args.cmd == "status":
        return _cmd_status(args)
    return _cmd_stop(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
