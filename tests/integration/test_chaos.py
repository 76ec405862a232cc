"""Chaos soak for the real multi-process runtime.

The same :class:`FaultPlan` machinery as the simulator's, compiled into
per-worker self-sabotage configs: one of three workers kills itself
mid-way through its second task, and every worker serves corrupted
bytes to peers with fixed per-worker coin streams.  The DAG must still
complete, its retrieved outputs must match a fault-free run byte for
byte, and the transaction log must pair each announced fault with the
recovery it forced.
"""

from collections import Counter

from repro.core.task import Task, TaskState
from repro.faults import FaultPlan, worker_fault_configs
from tests.integration.conftest import Cluster

N_STAGE = 6
#: seed 0 makes the first peer serve by launch-names w1/w2 corrupt at
#: p=0.35 (their first corrupt-coin draws are 0.16 and 0.15), so the
#: corruption path exercises deterministically whenever peers talk
SEED = 0
CORRUPT_P = 0.35


def _run_dag(cluster):
    """Two-stage DAG: producers write temps, consumers join two each."""
    m = cluster.manager
    temps, finals, tasks = [], [], []
    for i in range(N_STAGE):
        temp = m.declare_temp()
        t = Task(f"echo payload-{i} > out").add_output(temp, "out")
        m.submit(t)
        temps.append(temp)
        tasks.append(t)
    for i in range(N_STAGE):
        final = m.declare_temp()
        t = (
            Task("cat a b > out")
            .add_input(temps[i], "a")
            .add_input(temps[(i + 2) % N_STAGE], "b")
            .add_output(final, "out")
        )
        t.max_retries = 5
        m.submit(t)
        finals.append(final)
        tasks.append(t)
    for t in tasks[:N_STAGE]:
        t.max_retries = 5
    m.run_until_done(timeout=120)
    assert all(t.state == TaskState.DONE for t in tasks), [
        (t.command, t.state, t.result and t.result.failure) for t in tasks
    ]
    return [m.fetch_bytes(f) for f in finals]


def test_chaos_soak_completes_with_intact_outputs(tmp_path):
    plan = (
        FaultPlan(seed=SEED)
        .crash("w0", after_tasks=2)
        .corrupt_transfers("peer", CORRUPT_P)
    )
    configs = worker_fault_configs(plan, ["w0", "w1", "w2"])

    (tmp_path / "chaos").mkdir()
    (tmp_path / "clean").mkdir()
    chaos = Cluster(tmp_path / "chaos", n_workers=3, fault_configs=configs, seed=SEED)
    try:
        chaos_outputs = _run_dag(chaos)
        events = chaos.manager.log.events()
        metrics = chaos.manager.metrics
    finally:
        chaos.stop()

    clean = Cluster(tmp_path / "clean", n_workers=3, seed=SEED)
    try:
        clean_outputs = _run_dag(clean)
        assert not clean.manager.log.events("fault_injected")
    finally:
        clean.stop()

    # recovery is invisible in the data: byte-identical outputs
    assert chaos_outputs == clean_outputs
    assert chaos_outputs[0] == b"payload-0\npayload-2\n"

    # the crash fired (1 of 3 workers died) and was recovered
    faults = [e for e in events if e.kind == "fault_injected"]
    crashes = [e for e in faults if e.category == "crash"]
    assert len(crashes) == 1
    dead = crashes[0].worker
    assert any(
        e.kind == "worker_leave" and e.worker == dead and e.time >= crashes[0].time
        for e in events
    ), "crashed worker never declared gone"
    assert any(e.kind == "task_requeued" for e in events), (
        "a mid-task crash must strand at least its running task"
    )

    # every corrupt serve the workers announced was caught by checksum
    # verification and accounted as a failed transfer of that object
    # from that worker.  The serving worker's notice and the receiver's
    # report reach the manager on two connections, so the log holds
    # them in either order: they pair by (source, object), one to one.
    served_corrupt = [e for e in faults if e.category == "serve_corrupt"]
    serves = Counter((e.worker, e.file) for e in served_corrupt)
    failed = Counter(
        (r.category, r.file) for r in events if r.kind == "transfer_failed"
    )
    for (source, name), n in serves.items():
        assert failed[source, name] >= n, (
            f"no failure accounting for a corrupt serve of {name} by {source}"
        )
    assert metrics.counter("transfers.corrupt").value >= len(served_corrupt)
    assert metrics.snapshot()["events.fault_injected"]["value"] == len(faults)
