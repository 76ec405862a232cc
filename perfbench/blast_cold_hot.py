"""blast_cold_hot: bytes, sandboxes and subprocesses dominate.

Library mode, three real single-core workers on persistent workdirs.  A
seeded tarball (``declare_local`` + ``declare_untar``, worker lifetime)
is the shared asset; each job is ``SLICES`` ``dd`` tasks that cut 1 MiB
out of the unpacked blob into a temp file, and one ``cat | md5sum``
merge that consumes the partials wherever they landed.  The whole DAG is
submitted up front (a drain, not a loop); the control path idles while
the manager pushes the tarball, workers unpack it, and peers exchange
partials.

* phase ``cold``: empty worker caches — the pass that *writes* them.
* phase ``hot``: a new manager and respawned workers over the same
  workdirs — the pass that *reads* them (paper Fig. 9).  The tarball is
  regenerated from the seed, so the hot pass only hits if content
  naming reproduces the same cache name.

The same cache layer is used both ways, so a gain for one pass that
costs the other shows.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import tarfile
import time

from perfbench import harness, sut, trace

WORKERS = 3
CORES = 1
SLICES = 8
MIB = 1 << 20
ASSET_MIB = 96
#: jobs per second of ``--seconds`` (cold and hot together fill the run)
JOBS_PER_S = 4.0

#: the metric a traced pass is compared on (trace.overhead_frac)
HEADLINE = "phase1_ops_per_s"
PHASES = ("cold", "hot")


def plan(seed: int, seconds: float, scale: float) -> dict:
    return {
        "seed": seed,
        "jobs": max(2, int(JOBS_PER_S * seconds * scale)),
        "asset_mib": max(SLICES, int(ASSET_MIB * min(1.0, scale * 4))),
        "corrupt": False,
    }


def chunk(seed: int, index: int) -> bytes:
    """MiB ``index`` of the asset; regenerable without holding the blob."""
    return random.Random(f"blast:{seed}:{index}").randbytes(MIB)


def _plain(info: tarfile.TarInfo) -> tarfile.TarInfo:
    info.mtime = info.uid = info.gid = 0
    info.uname = info.gname = ""
    info.mode = 0o644
    return info


def make_asset(seed: int, mib: int, directory: str) -> str:
    """Write the seeded tarball; same seed, same bytes, same cache name."""
    os.makedirs(directory, exist_ok=True)
    blob = os.path.join(directory, "blob.bin")
    with open(blob, "wb") as f:
        for i in range(mib):
            f.write(chunk(seed, i))
    path = os.path.join(directory, "asset.tar")
    with tarfile.open(path, "w", format=tarfile.GNU_FORMAT) as tar:
        tar.add(blob, arcname="blob.bin", filter=_plain)
    os.unlink(blob)
    return path


def job_offsets(seed: int, jobs: int, mib: int) -> list[list[int]]:
    rng = random.Random(f"blast:{seed}:jobs")
    return [[rng.randrange(mib) for _ in range(SLICES)] for _ in range(jobs)]


def expected_digest(seed: int, offsets: list[int]) -> str:
    h = hashlib.md5()
    for off in offsets:
        h.update(chunk(seed, off))
    return h.hexdigest()


def _submit_jobs(manager, tar_path: str, offsets: list, submitted_at: dict):
    """Declare the asset and submit every job; returns (tarball, merges)."""
    tarball = manager.declare_local(tar_path, cache="worker")
    database = manager.declare_untar(tarball, cache="worker")
    merges = {}
    for j, offs in enumerate(offsets):
        partials = []
        for off in offs:
            task = sut.Task(
                f"dd if=db/blob.bin of=part bs={MIB} skip={off} count=1 status=none"
            )
            task.add_input(database, "db")
            partials.append(manager.declare_temp())
            task.add_output(partials[-1], "part")
            t0 = manager.now()
            submitted_at[manager.submit(task)] = t0
        merge = sut.Task("cat " + " ".join(f"p{k}" for k in range(SLICES)) + " | md5sum")
        for k, partial in enumerate(partials):
            merge.add_input(partial, f"p{k}")
        t0 = manager.now()
        merges[manager.submit(merge)] = j
        submitted_at[merge.task_id] = t0
    return tarball, merges


def _run_phase(params: dict, phase: str) -> dict:
    seed, jobs, mib = params["seed"], params["jobs"], params["asset_mib"]
    root = params["root"]
    workdirs = [os.path.join(root, f"blast-w{i}") for i in range(WORKERS)]
    sut.Manager, sut.Task  # resolve the lazy imports before timing
    boot = harness.boot_seconds(params)
    tracer = trace.install(params)

    manager, workers = None, []
    result: dict = {}
    try:
        with harness.Calibration() as cal:
            tar_path = make_asset(seed, mib, os.path.join(root, f"asset-{phase}"))
            manager = sut.Manager()
            workers = [
                subprocess.Popen(
                    sut.worker_argv(manager.host, manager.port, workdir, CORES),
                    env=sut.child_env(),
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                )
                for workdir in workdirs
            ]
            harness.wait_for(
                lambda: len(manager.workers) >= WORKERS, 30, "worker registration"
            )
        result["setup_samples"] = [cal.setup_sample(boot)]

        offsets = job_offsets(seed, jobs, mib)
        want = [expected_digest(seed, offs) for offs in offsets]
        if params["corrupt"]:
            want[0] = want[0][::-1]  # test hook: the oracle must notice

        n_tasks = jobs * (SLICES + 1)
        failures = []
        digests = [""] * jobs
        job_done = []
        submitted_at: dict = {}
        stamps: dict = {}  # task id -> (submit, result) on the manager's clock
        loadgen_cpu = time.thread_time()
        with harness.Calibration() as cal:
            tarball, merges = _submit_jobs(manager, tar_path, offsets, submitted_at)
            for _ in range(n_tasks):
                task = manager.wait(timeout=120)
                if task is None:
                    failures.append("wait timed out")
                    break
                stamps[task.task_id] = (submitted_at[task.task_id], manager.now())
                if task.state is not sut.TaskState.DONE or not task.result.ok:
                    failures.append(f"{task.task_id}: {task.state} {task.result}")
                j = merges.get(task.task_id)
                if j is not None:
                    job_done.append(time.perf_counter() - cal.started)
                    digests[j] = (task.result.output.split() or [""])[0]
                    if digests[j] != want[j]:
                        failures.append(f"job {j}: digest {digests[j]} != {want[j]}")

        moved = {"manager": 0, "peer": 0}
        for ev in manager.log.events("transfer_end"):
            moved["manager" if ev.category == "@manager" else "peer"] += ev.size
        if phase == "hot":
            pushed = [
                ev for ev in manager.log.events("transfer_start")
                if ev.file == tarball.cache_name
            ]
            unpacks = len(manager.log.events("stage_start"))
            if pushed or unpacks:
                failures.append(
                    f"hot pass pushed the tarball {len(pushed)}x, unpacked {unpacks}x"
                )
        result.update(
            ops=n_tasks,
            elapsed_s=cal.elapsed,
            slowdown=cal.slowdown,
            **harness.latency_ms(job_done),
            latency_samples=len(job_done),
            digests=digests,
            manager_bytes=moved["manager"],
            peer_bytes=moved["peer"],
            loadgen_cpu_s=time.thread_time() - loadgen_cpu,
            attempted=n_tasks,
            failed=len(failures),
            failures=failures[:5],
        )
        if tracer:
            result["layers"] = tracer.report_manager(manager, result, stamps)
    finally:
        if manager is not None:
            manager.close(shutdown_workers=True)
        for proc in workers:
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                harness.stop_process(proc)
    if tracer:
        # reaped children of this interpreter: the workers and their tasks
        result["layers"]["worker.cpu_s"] = sum(os.times()[2:4])
        result["layers"].update(trace.layers_from_workers(workdirs))
    return result


def phase_cold(params: dict) -> dict:
    return _run_phase(params, "cold")


def phase_hot(params: dict) -> dict:
    return _run_phase(params, "hot")


def summarize(results: dict) -> dict:
    cold, hot = results["cold"], results["hot"]
    if cold["digests"] != hot["digests"]:
        hot["failed"] += 1
        hot["failures"].append("hot digests differ from cold")
    staged = cold["manager_bytes"] + cold["peer_bytes"]
    return {
        "phase1_ops_per_s": harness.rate(cold),
        "phase2_ops_per_s": harness.rate(hot),
        **harness.normalised_latency(hot),
        "manager_bytes_frac": cold["manager_bytes"] / staged if staged else 0.0,
    }
