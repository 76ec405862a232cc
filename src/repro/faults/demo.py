"""``python -m repro.faults.demo`` — a reproducible chaos run in a box.

Drives the simulator's standard hostile fault plan (half the cluster
killed, one link throttled, probabilistic transfer failure/corruption)
against a two-stage DAG, streaming the transaction log to disk.  The
log is the artifact: replay it with ``repro-status <log>`` to see the
fault/recovery ledger, or diff two runs with the same seed to confirm
the chaos machinery is deterministic.  CI runs this with a fixed seed
and uploads the log.

Exit status is non-zero if any task fails to reach DONE — a chaos run
that does not converge is a recovery bug, not bad luck.
"""

from __future__ import annotations

import argparse
from typing import Optional

from repro.core.task import Task, TaskState
from repro.faults.plan import FaultPlan
from repro.faults.sim import SimFaultInjector
from repro.sim.cluster import SimCluster
from repro.sim.simmanager import SimManager

__all__ = ["hostile_plan", "run_chaos", "main"]

MB = 1_000_000


def hostile_plan(seed: int) -> FaultPlan:
    """The reference hostile plan used by CI and the chaos soak tests."""
    return (
        FaultPlan(seed=seed)
        .crash("w0", at=2.0)
        .crash("w1", after_tasks=2)
        .disconnect("w2", at=3.0)
        .degrade_link("w3", at=1.0, factor=0.25)
        .fail_transfers("any", 0.08)
        .corrupt_transfers("peer", 0.10)
    )


def run_chaos(
    seed: int,
    txn_log_path: Optional[str] = None,
    n_workers: int = 6,
    n_stage: int = 12,
):
    """Run the chaos DAG; returns ``(manager, stats, tasks)``."""
    cluster = SimCluster()
    for i in range(n_workers):
        cluster.add_worker(cores=4, worker_id=f"w{i}")
    m = SimManager(
        cluster, seed=seed, max_task_retries=10, txn_log_path=txn_log_path
    )
    SimFaultInjector(hostile_plan(seed), m)
    shared = m.declare_dataset("shared", MB)
    temps, tasks = [], []
    for i in range(n_stage):
        temp = m.declare_temp()
        t = Task(f"produce{i}").add_input(shared, "d").add_output(temp, "out")
        m.submit(t, duration=1.0, output_sizes={"out": MB})
        temps.append(temp)
        tasks.append(t)
    for i in range(n_stage):
        t = (
            Task(f"consume{i}")
            .add_input(temps[i], "a")
            .add_input(temps[(i + 5) % n_stage], "b")
        )
        m.submit(t, duration=1.0)
        tasks.append(t)
    stats = m.run()
    return m, stats, tasks


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.demo",
        description="Run the reference chaos plan on the simulator and "
        "stream its transaction log to disk.",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--log", default="chaos_txn.jsonl",
        help="transaction log output path (default: %(default)s)",
    )
    parser.add_argument("--workers", type=int, default=6)
    parser.add_argument("--tasks", type=int, default=12,
                        help="tasks per DAG stage")
    args = parser.parse_args(argv)

    m, stats, tasks = run_chaos(
        args.seed, txn_log_path=args.log,
        n_workers=args.workers, n_stage=args.tasks,
    )
    count = stats.log.count
    done = sum(1 for t in tasks if t.state == TaskState.DONE)
    print(
        f"seed {args.seed}: {done}/{len(tasks)} tasks done, "
        f"{count('fault_injected')} faults injected, "
        f"{count('task_requeued')} requeues, "
        f"{count('file_regenerated')} regenerations "
        f"-> {args.log}"
    )
    return 0 if done == len(tasks) else 1


if __name__ == "__main__":
    raise SystemExit(main())
