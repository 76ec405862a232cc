"""Layer microbenches: a price tag per layer, outside any workload.

Each function times calls into one layer's public entry points with a
fixed iteration count and reports the median of ``REPS`` repeats, so a
later change to one layer has a number that moves without running a
whole workload — and the README's interaction table says which
end-to-end metric that number should drag along.  The layers are the
repository's modules: protocol, journal, control_plane, scheduler,
replica_table / transfer_table, naming, observe, memo, worker, sim and
manager.

These run as one extra phase of a traced run; they never contribute to
an end-to-end metric.
"""

from __future__ import annotations

import os
import random
import socket
import statistics
import threading
import time

from perfbench import dispatch_storm, sut

REPS = 5
#: multiplies every iteration count (the benchmark's own tests shrink it)
SCALE = 1.0


def _n(count: int) -> int:
    return max(3, int(count * SCALE))


def _median_s(fn, reps: int = REPS) -> float:
    """Median wall seconds of ``fn()`` over ``reps`` calls."""
    samples = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _per_call(fn, n: int, reps: int = REPS) -> float:
    """Median seconds per iteration of ``for _ in range(n): fn()``."""

    n = _n(n)

    def loop():
        for _ in range(n):
            fn()

    return _median_s(loop, reps) / n


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------

_EXECUTE = {
    "type": "execute", "task_id": "t12345", "command": "noop",
    "inputs": [["in0", "buffer-md5-0123456789abcdef0123456789abcdef", "workflow"]],
    "outputs": [[f"out{i}", f"temp-rnd-0123456789ab-{i:016x}", "workflow"] for i in range(3)],
    "env": {}, "resources": {"cores": 1, "memory": 0, "disk": 0, "gpus": 0},
}
_TASK_DONE = {
    "type": "task_done", "task_id": "t12345", "exit_code": 0, "output": "",
    "harvested": [f"temp-rnd-0123456789ab-{i:016x}" for i in range(3)],
    "execution_time": 0.0, "staging_time": 0.0,
}


def protocol(out: dict, tmp: str) -> None:
    out["protocol.encode_frame_us"] = _per_call(lambda: sut.encode_frame(_EXECUTE), 20_000) * 1e6

    frames = _n(4_000)
    stream = sut.encode_frame(_TASK_DONE) * frames
    chunks = [stream[i:i + 65536] for i in range(0, len(stream), 65536)]

    def reassemble():
        r = sut.FrameReassembler()
        n = 0
        for piece in chunks:
            r.feed(piece)
            while r.next_item() is not None:
                n += 1
        assert n == frames

    out["protocol.reassemble_msgs_per_s"] = frames / _median_s(reassemble)

    bulk = os.urandom(1 << 20)
    announce = sut.encode_frame({"type": "file_data", "size": 16 << 20})

    def reassemble_bulk():
        r = sut.FrameReassembler()
        r.feed(announce)
        r.next_item()
        r.expect_bytes(16 << 20)
        for _ in range(16):
            r.feed(bulk)
        kind, payload = r.next_item()
        assert kind == "bytes" and len(payload) == 16 << 20

    out["protocol.reassemble_bulk_mb_per_s"] = 16 / _median_s(reassemble_bulk)

    # how full do batch envelopes get when notices arrive back to back?
    listener = socket.create_server(("127.0.0.1", 0))
    conn = sut.Connection.connect(*listener.getsockname())
    peer, _ = listener.accept()
    listener.close()
    drain = threading.Thread(
        target=lambda: [None for _ in iter(lambda: peer.recv(1 << 20), b"")]
    )
    drain.start()
    registry = sut.MetricsRegistry()
    sender = sut.BatchSender(conn, metrics=registry)
    try:
        for _ in range(_n(20_000)):
            sender.notice(_TASK_DONE)
    finally:
        sender.close()
        conn.close()
        drain.join()
        peer.close()
    out["protocol.batch_fill_mean"] = registry.snapshot()["net.batch_fill"]["mean"]

    payload = {"ok": True, "value": os.urandom(64 << 10)}
    blob = sut.ser.dumps(payload)
    out["protocol.ser_dumps_us"] = _per_call(lambda: sut.ser.dumps(payload), 5_000) * 1e6
    out["protocol.ser_loads_us"] = _per_call(lambda: sut.ser.loads(blob), 5_000) * 1e6


# ---------------------------------------------------------------------------
# journal
# ---------------------------------------------------------------------------

_RECORD = {
    "op": "done", "task": "t12345",
    "outputs": [["out0", "temp-rnd-0123456789ab-0000000000000001", 65536]],
}


def journal(out: dict, tmp: str) -> None:
    def appends(fsync: bool, n: int) -> float:
        n = _n(n)
        samples = []
        for rep in range(REPS):
            j = sut.Journal(os.path.join(tmp, f"journal-{fsync}-{rep}"), fsync=fsync)
            j.append(_RECORD)  # opens the log
            started = time.perf_counter()
            for _ in range(n):
                j.append(_RECORD)
            samples.append((time.perf_counter() - started) / n)
            j.close()
        return statistics.median(samples)

    out["journal.append_fsync_us"] = appends(True, 200) * 1e6
    out["journal.append_nofsync_us"] = appends(False, 5_000) * 1e6

    path = os.path.join(tmp, "journal-replay")
    j = sut.Journal(path, fsync=False)
    stored = _n(10_000)
    for _ in range(stored):
        j.append(_RECORD)
    j.close()
    out["journal.replay_records_per_s"] = stored / _median_s(
        lambda: sut.Journal(path, fsync=False).replay()
    )
    records = [_RECORD] * stored
    j = sut.Journal(os.path.join(tmp, "journal-compact"))
    out["journal.compact_ms"] = _median_s(lambda: j.compact(records)) * 1e3
    j.close()


# ---------------------------------------------------------------------------
# control plane (through a benchmark-owned RuntimePort)
# ---------------------------------------------------------------------------


class FakePort:
    """The smallest ``RuntimePort``: effects are recorded, nothing moves."""

    def __init__(self) -> None:
        self.started: list = []
        self.clock = 0.0

    def now(self) -> float:
        return self.clock

    def worker_connected(self, worker_id: str) -> bool:
        return True

    def start_task(self, task) -> None:
        self.started.append(task)

    def request_pump(self) -> None:
        pass

    def _ignore(self, *args, **kwargs) -> None:
        pass

    push_object = send_fetch = run_minitask = cancel_task = task_preempted = _ignore
    launch_library = store_replica = delete_replica = deliver = schedule_pump = _ignore


def _plane(n_workers: int = 64, cores: int = 4):
    port = FakePort()
    plane = sut.ControlPlane(port)
    for i in range(n_workers):
        capacity = sut.Resources(cores=cores, memory=4_000, disk=10_000)
        plane.worker_joined(f"W{i:03d}", sut.ResourcePool(capacity))
    return plane, port


def _finish_started(plane, port) -> int:
    done = len(port.started)
    for task in port.started:
        ok = sut.TaskResult(exit_code=0)
        finished = plane.on_task_result(task.worker_id, task.task_id, ok)
        plane.complete_task(finished, ok)
    port.started.clear()
    return done


def control_plane(out: dict, tmp: str) -> None:
    depth = _n(5_000)

    def submits():
        plane, _port = _plane(0)
        started = time.perf_counter()
        for _ in range(depth):
            plane.submit(sut.Task("noop"))
        return (time.perf_counter() - started) / depth

    out["control_plane.submit_us"] = statistics.median(submits() for _ in range(REPS)) * 1e6

    # the per-submit pump: one new ready task, 64 idle workers
    plane, port = _plane()
    samples = []
    for _ in range(_n(400)):
        plane.submit(sut.Task("noop"))
        started = time.perf_counter()
        plane.pump()
        samples.append(time.perf_counter() - started)
        _finish_started(plane, port)
    out["control_plane.pump_idle_us_64w"] = statistics.median(samples) * 1e6

    # the deep queue: ``depth`` ready tasks drained through 256 slots
    def deep():
        plane, port = _plane()
        for _ in range(depth):
            plane.submit(sut.Task("noop"))
        pumping = 0.0
        remaining = depth
        while remaining:
            started = time.perf_counter()
            plane.pump()
            pumping += time.perf_counter() - started
            remaining -= _finish_started(plane, port)
        return pumping / depth

    out["control_plane.pump_deep_us_per_task"] = statistics.median(deep() for _ in range(3)) * 1e6


# ---------------------------------------------------------------------------
# scheduler and tables
# ---------------------------------------------------------------------------


def _named_task(rng, n_files: int, n_inputs: int = 4):
    task = sut.Task("cmd")
    for i in range(n_inputs):
        f = sut.BufferFile(b"x")
        f.cache_name = f"file-{rng.randrange(n_files)}"
        task.add_input(f, f"in{i}")
    return task


def _scheduler(n_workers: int = 100, n_files: int = 500):
    replicas, transfers = sut.ReplicaTable(), sut.TransferTable()
    rng = random.Random(0)
    for w in range(n_workers):
        for _ in range(16):
            replicas.add_replica(f"file-{rng.randrange(n_files)}", f"w{w:04d}", size=1_000_000)
    views = {
        f"w{i:04d}": sut.WorkerView(
            worker_id=f"w{i:04d}",
            capacity=sut.Resources(cores=16, memory=64_000, disk=64_000),
        )
        for i in range(n_workers)
    }
    return sut.Scheduler(replicas, transfers), replicas, transfers, views


def scheduler(out: dict, tmp: str) -> None:
    sched, replicas, transfers, views = _scheduler()
    rng = random.Random(1)
    tasks = [_named_task(rng, 500) for _ in range(256)]
    index = sut.PlacementIndex(dict(views))

    def choose():
        for task in tasks:
            sched.choose_worker_indexed(task, index)

    out["scheduler.choose_indexed_us"] = _median_s(choose) / len(tasks) * 1e6

    def plan():
        for task in tasks:
            sched.plan_transfers(task, "w0001", {})

    out["scheduler.plan_transfers_us"] = _median_s(plan) / len(tasks) * 1e6

    queued = [sut.Task("noop") for _ in range(_n(5_000))]
    for seq, task in enumerate(queued):
        task.task_id, task.seq = f"t{seq}", seq

    def push_pop():
        queue = sut.ReadyQueue()
        for task in queued:
            queue.push(task)
        for entry in queue.pop_entries(queue.snapshot_token):
            queue.discard(entry[3])

    out["scheduler.ready_push_pop_us"] = _median_s(push_pop) / len(queued) * 1e6

    def add():
        table = sut.ReplicaTable()
        for i in range(5_000):
            table.add_replica(f"f{i % 700}", f"w{i % 97}", size=1024)

    out["replica_table.add_us"] = _median_s(add) / 5_000 * 1e6
    names = [[f"file-{rng.randrange(500)}" for _ in range(4)] for _ in range(256)]
    out["replica_table.locality_scores_us"] = _median_s(
        lambda: [replicas.locality_scores(n) for n in names]
    ) / len(names) * 1e6
    for i in range(8):  # a few busy sources, none saturated
        transfers.begin(f"busy-{i}", f"w{i:04d}", "w0099", 1)
    sources = [f"w{i:04d}" for i in range(16)]
    out["transfer_table.sources_with_capacity_us"] = _per_call(
        lambda: transfers.sources_with_capacity(sources), 20_000
    ) * 1e6


# ---------------------------------------------------------------------------
# naming, observe, memo
# ---------------------------------------------------------------------------


def naming(out: dict, tmp: str) -> None:
    data = os.urandom(8 << 20)
    out["naming.buffer_md5_mb_per_s"] = 8 / _median_s(
        lambda: sut.Namer(seed=0).assign(sut.BufferFile(data, sut.CacheLevel.WORKER))
    )
    tree = os.path.join(tmp, "tree")
    rng = random.Random(0)
    for d in range(10):
        os.makedirs(os.path.join(tree, f"d{d}"))
        for i in range(20):
            with open(os.path.join(tree, f"d{d}", f"f{i}"), "wb") as f:
                f.write(rng.randbytes(2048))
    out["naming.dir_merkle_ms"] = _median_s(lambda: sut.directory_merkle(tree)) * 1e3
    task = _named_task(rng, 500, n_inputs=8)
    out["naming.task_merkle_us"] = _per_call(lambda: sut.task_merkle(task), 5_000) * 1e6


def observe(out: dict, tmp: str) -> None:
    log = sut.EventLog()
    writer = sut.TransactionLogWriter(os.path.join(tmp, "txn.jsonl"), runtime="real")
    log.attach(writer)
    out["observe.txn_emit_us"] = _per_call(
        lambda: log.emit(1.0, "task_start", worker="W001", task="t12345", category="default"),
        20_000,
    ) * 1e6
    writer.close()
    registry = sut.MetricsRegistry()
    hist, counter = registry.histogram("h"), registry.counter("c")
    out["observe.hist_observe_ns"] = _per_call(lambda: hist.observe(1.0), 100_000) * 1e9
    out["observe.counter_inc_ns"] = _per_call(counter.inc, 100_000) * 1e9


def memo(out: dict, tmp: str) -> None:
    store = sut.MemoStore(os.path.join(tmp, "memo"))
    outputs = [sut.MemoOutput("out", "memo-md5-0123456789abcdef", 1024)]
    for i in range(_n(100)):
        store.record(f"{i:032x}", "command", "noop", "default", outputs)
    out["memo.get_us"] = _per_call(lambda: store.get(f"{23:032x}"), 100_000) * 1e6
    # every record rewrites the index: the cost grows with the store
    out["memo.record_flush_us"] = _per_call(
        lambda: store.record(f"{7:032x}", "command", "noop", "default", outputs), 20
    ) * 1e6


# ---------------------------------------------------------------------------
# worker, sim, manager
# ---------------------------------------------------------------------------


def worker(out: dict, tmp: str) -> None:
    root = os.path.join(tmp, "worker")
    cache = sut.WorkerCache(os.path.join(root, "cache"))
    level = sut.CacheLevel.WORKFLOW
    inputs = []
    for i in range(4):
        cache.insert_bytes(os.urandom(4096), f"input-{i}", level)
        inputs.append((f"in{i}", f"input-{i}"))
    serial = iter(range(10**9))

    def cycle():
        n = next(serial)
        box = sut.Sandbox(root, f"t{n}")
        box.link_inputs(cache, inputs)
        with open(os.path.join(box.path, "out"), "wb") as f:
            f.write(b"x" * 1024)
        box.harvest_outputs(cache, [("out", f"output-{n}", level)])
        box.destroy()

    out["worker.sandbox_cycle_us"] = _per_call(cycle, 100) * 1e6
    blob = os.urandom(1024)
    out["worker.cache_insert_us"] = _per_call(
        lambda: cache.insert_bytes(blob, f"blob-{next(serial)}", level), 40
    ) * 1e6
    allocation = sut.Resources(cores=1)
    out["worker.run_command_ms"] = _per_call(
        lambda: sut.run_command("true", root, {}, allocation), 20
    ) * 1e3


def sim(out: dict, tmp: str) -> None:
    scheduled, transfers = _n(50_000), _n(200)

    def events():
        simulation = sut.Simulation()
        rng = random.Random(0)
        for _ in range(scheduled):
            simulation.schedule(rng.random() * 100.0, int)
        simulation.run()

    out["sim.engine_events_per_s"] = scheduled / _median_s(events)

    def starts():
        simulation = sut.Simulation()
        network = sut.Network(simulation)
        for i in range(100):
            network.add_node(f"n{i}", 1.25e9)
        rng = random.Random(0)
        started = time.perf_counter()
        for _ in range(transfers):
            network.start(f"n{rng.randrange(50)}", f"n{50 + rng.randrange(50)}", 1e8, int)
        return (time.perf_counter() - started) / transfers

    out["sim.network_start_us"] = statistics.median(starts() for _ in range(REPS)) * 1e6


def manager(out: dict, tmp: str) -> None:
    def submit_loop(live: bool) -> float:
        if live:
            m, fleet = dispatch_storm.bring_up(connect=True)
        else:
            m, fleet = sut.Manager(), None
        try:
            tasks = []
            for _ in range(_n(1_000)):
                task = sut.Task("noop")
                for j in range(3):
                    task.add_output(m.declare_temp(), f"out{j}")
                tasks.append(task)
            started = time.perf_counter()
            for task in tasks:
                m.submit(task)
            per_submit = (time.perf_counter() - started) / len(tasks)
            if live:
                for _ in tasks:
                    m.wait(timeout=30)
            return per_submit
        finally:
            if live:
                dispatch_storm.tear_down(m, fleet)
            else:
                m.close()

    out["manager.submit_idle_us"] = statistics.median(submit_loop(False) for _ in range(3)) * 1e6
    # diagnostic only: bimodal when the submitting thread and the reactor
    # convoy on the state lock
    out["manager.submit_live_us"] = statistics.median(submit_loop(True) for _ in range(3)) * 1e6


LAYERS = (protocol, journal, control_plane, scheduler, naming, observe, memo, worker, sim, manager)


def phase_micro(params: dict) -> dict:
    global SCALE
    SCALE = params.get("scale", 1.0)
    out: dict = {}
    tmp = os.path.join(params["root"], "layers")
    os.makedirs(tmp)
    for layer in LAYERS:
        layer(out, tmp)
    return {"layers": out}
