"""Microbenchmarks of the core mechanisms (supports §3.2 and §6).

Not a paper figure: these measure the throughput of the pieces the
paper's prose worries about — content-addressable naming cost (§3.2,
"there is some expense to producing such names"), and scheduler
dispatch rate (§6: "at even one millisecond per task, it would still
take a thousand seconds to dispatch a million tasks").
"""

import os
import random

from repro.core.files import BufferFile, CacheLevel
from repro.core.naming import Namer, directory_merkle, task_spec_hash
from repro.core.replica_table import ReplicaTable
from repro.core.resources import Resources
from repro.core.scheduler import PlacementIndex, ReadyQueue, Scheduler, WorkerView
from repro.core.task import Task
from repro.core.transfer_table import TransferTable
from repro.protocol import serialization as ser


def test_bench_buffer_naming_throughput(benchmark, bench_report):
    """Content-addressing 1 MB buffers (MD5-bound)."""
    data = os.urandom(1 << 20)

    def name_one():
        namer = Namer(seed=0)
        return namer.assign(BufferFile(data, CacheLevel.WORKER))

    name = benchmark(name_one)
    assert name.startswith("buffer-md5-")
    bench_report.record("mean_seconds", benchmark.stats.stats.mean)


def test_bench_directory_merkle(benchmark, tmp_path, bench_report):
    """Merkle-naming a 200-file directory tree (paper Fig 7)."""
    rng = random.Random(0)
    for d in range(10):
        sub = tmp_path / f"d{d}"
        sub.mkdir()
        for i in range(20):
            (sub / f"f{i}").write_bytes(rng.randbytes(2048))
    digest = benchmark(directory_merkle, str(tmp_path))
    assert len(digest) == 32
    bench_report.record("mean_seconds", benchmark.stats.stats.mean)


def test_bench_task_spec_hash(benchmark, bench_report):
    """Spec-hashing a mini task with 20 inputs."""
    inputs = [(f"in{i}", f"file-md5-{i:032x}") for i in range(20)]
    digest = benchmark(
        task_spec_hash, "tar -xf input.tar", inputs, {"cores": 1}, {"X": "1"}
    )
    assert len(digest) == 32
    bench_report.record("mean_seconds", benchmark.stats.stats.mean)


def _make_scheduler(n_workers, n_files):
    replicas = ReplicaTable()
    transfers = TransferTable()
    rng = random.Random(0)
    for w in range(n_workers):
        for _ in range(16):
            replicas.add_replica(
                f"file-{rng.randrange(n_files)}", f"w{w:04d}", size=1_000_000
            )
    sched = Scheduler(replicas, transfers)
    views = {
        f"w{i:04d}": WorkerView(
            worker_id=f"w{i:04d}",
            capacity=Resources(cores=16, memory=64_000, disk=64_000),
            running_tasks=0,
        )
        for i in range(n_workers)
    }
    return sched, views


def _named_task(n_inputs, rng, n_files):
    t = Task("cmd")
    for i in range(n_inputs):
        f = BufferFile(b"x")
        f.cache_name = f"file-{rng.randrange(n_files)}"
        t.inputs.append((f"in{i}", f))
    return t


def test_bench_scheduler_placement_100_workers(benchmark, bench_report):
    """Locality placement against 100 workers (the §6 dispatch-rate concern)."""
    sched, views = _make_scheduler(100, 500)
    rng = random.Random(1)
    tasks = [_named_task(4, rng, 500) for _ in range(64)]

    def place_batch():
        index = PlacementIndex(dict(views))
        return [sched.choose_worker_indexed(t, index) for t in tasks]

    chosen = benchmark(place_batch)
    assert all(c is not None for c in chosen)
    bench_report.record("mean_seconds", benchmark.stats.stats.mean)
    bench_report.record("placements_per_second", 64 / benchmark.stats.stats.mean)


def _fresh_tasks(n_tasks, n_files, inputs_per_task=4):
    rng = random.Random(3)
    tasks = []
    for i in range(n_tasks):
        t = _named_task(inputs_per_task, rng, n_files)
        t.task_id = f"t{i + 1}"
        t.seq = i + 1
        t.priority = float(rng.randrange(4))
        tasks.append(t)
    return tasks


def _bump(view):
    """A dispatch's effect on a worker view (one more 1-core task)."""
    return WorkerView(
        worker_id=view.worker_id,
        capacity=view.capacity,
        allocated=Resources(
            cores=view.allocated.cores + 1,
            memory=view.allocated.memory,
            disk=view.allocated.disk,
            gpus=view.allocated.gpus,
        ),
        running_tasks=view.running_tasks + 1,
    )


def _indexed_pump(sched, tasks, views):
    """The pump's placement loop: ReadyQueue heap + PlacementIndex."""
    queue = ReadyQueue()
    for t in tasks:
        queue.push(t)
    index = PlacementIndex(dict(views))
    placed = []
    for entry in queue.pop_entries(queue.snapshot_token):
        t = entry[3]
        wid = sched.choose_worker_indexed(t, index)
        queue.discard(t)
        if wid is None:
            continue
        placed.append((t.task_id, wid))
        index.update(wid, _bump(index.views[wid]))
    return placed


def test_sched_pump(bench_report):
    """Pump scaling grid: per-pump wall time of the indexed placement loop.

    Each cell places every ready task of one pump against a cluster
    (worker capacity sized so all fit).  Decision equivalence with the
    brute-force scan is the equivalence suite's job
    (``tests/core/test_scheduler_equivalence.py``); the scan's last
    timings on this grid are in EXPERIMENTS.md ("Retired baselines").
    """
    import time

    for n_workers, n_tasks in [(25, 500), (100, 2000), (200, 5000)]:
        n_files = n_tasks // 10
        sched, views = _make_scheduler(n_workers, n_files)
        for v in views.values():
            # every task is 1-core; make sure the whole pump places
            v.capacity = Resources(
                cores=-(-n_tasks // n_workers) + 1, memory=64_000, disk=64_000
            )
        tasks = _fresh_tasks(n_tasks, n_files)

        start = time.perf_counter()
        placed = _indexed_pump(sched, tasks, views)
        elapsed = time.perf_counter() - start

        assert len(placed) == n_tasks
        bench_report.record(
            f"indexed_pump_seconds_{n_workers}w_{n_tasks}t", elapsed
        )


def test_bench_transfer_planning(benchmark, bench_report):
    """Source selection under per-source limits for a 6-input task."""
    sched, views = _make_scheduler(50, 200)
    rng = random.Random(2)
    task = _named_task(6, rng, 200)

    plan = benchmark(sched.plan_transfers, task, "w0001", {})
    assert plan is not None
    bench_report.record("mean_seconds", benchmark.stats.stats.mean)


def test_bench_replica_table_updates(benchmark, bench_report):
    """Cache-update ingestion rate (one per transfer in a real run)."""
    def ingest():
        rt = ReplicaTable()
        for i in range(5000):
            rt.add_replica(f"f{i % 700}", f"w{i % 97}", size=1024)
        return rt.total_replicas()

    total = benchmark(ingest)
    assert total > 0
    bench_report.record("mean_seconds", benchmark.stats.stats.mean)
    bench_report.record("updates_per_second", 5000 / benchmark.stats.stats.mean)


def test_bench_function_serialization(benchmark, bench_report):
    """PythonTask payload round trip for a closure over module state."""
    offset = 17

    def fn(x, y=3):
        return (x + y) * offset

    def round_trip():
        return ser.loads(ser.dumps(fn))(5)

    assert benchmark(round_trip) == (5 + 3) * 17
    bench_report.record("mean_seconds", benchmark.stats.stats.mean)


def test_bench_sim_end_to_end_dispatch(benchmark, bench_report):
    """Whole-loop dispatch rate: 2000 tiny tasks through the simulated
    manager on 100 workers (the paper §6 scheduling-scale concern,
    measured through the full pump/transfer/execute cycle)."""
    from repro.core.task import Task
    from repro.sim.cluster import SimCluster
    from repro.sim.simmanager import SimManager

    def run():
        cluster = SimCluster()
        cluster.add_workers(100, cores=4)
        m = SimManager(cluster)
        data = m.declare_dataset("shared", 1_000_000)
        for i in range(2000):
            t = Task(f"t{i}")
            t.add_input(data, "d")
            m.submit(t, duration=1.0)
        stats = m.run(finalize=False)
        assert stats.tasks_done == 2000
        return stats

    stats = benchmark.pedantic(run, iterations=1, rounds=1)
    assert stats.tasks_done == 2000
    bench_report.record("wall_seconds", benchmark.stats.stats.mean)
    bench_report.record("tasks_per_second", 2000 / benchmark.stats.stats.mean)
