"""dispatch_storm: the control path does all the work, workers none.

Library mode (``Manager()`` with its defaults: no journal, no txn-log
file — the paper's §6 "one millisecond per task" regime) against a fleet
of protocol-conformant ``ScriptedWorker`` stubs that acknowledge every
command instantly, hosted in one forked process.  Tasks are ``noop``
commands with a few temp outputs each, so every task costs the manager
an execute frame out and a task_done plus one cache_update per output
back, and nothing touches a disk or a sandbox.

* phase ``preloaded`` (drain): submit every task, *then* let the fleet
  connect; clock = first submit -> last completion.  The deep-queue
  shape: one pump places hundreds of tasks.
* phase ``live`` (closed loop, ``inflight`` tasks outstanding): the
  fleet registers first, then ``submit``/``wait`` keep the window full.
  The per-submit-pump shape, and the phase that times single tasks.
"""

from __future__ import annotations

import os
import random
import time

from perfbench import harness, sut, trace

WORKERS = 64
CORES = 4
INFLIGHT = 256
#: set-up samples taken per phase before the timed one
SETUP_PROBES = 2
#: tasks per second of ``--seconds`` (each phase gets half the run)
PRELOADED_TASKS_PER_S = 1250
LIVE_TASKS_PER_S = 1100

#: the metric a traced pass is compared on (trace.overhead_frac)
HEADLINE = "phase1_ops_per_s"
PHASES = ("preloaded", "live")


def plan(seed: int, seconds: float, scale: float) -> dict:
    return {
        "seed": seed,
        "preloaded_tasks": max(64, int(PRELOADED_TASKS_PER_S * seconds * scale)),
        "live_tasks": max(64, int(LIVE_TASKS_PER_S * seconds * scale)),
    }


class Fleet:
    """``WORKERS`` scripted workers in one forked process.

    Forked while this interpreter is still single-threaded (before the
    manager starts its reactor), then parked on a pipe until told where
    to connect; closing the pipe shuts the fleet down.
    """

    def __init__(self) -> None:
        rd, self._wr = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            code = 1
            try:
                os.close(self._wr)
                host, port = os.read(rd, 256).decode().split(":")
                workers = [
                    sut.ScriptedWorker(host, int(port), cores=CORES)
                    for _ in range(WORKERS)
                ]
                os.read(rd, 1)  # EOF: the phase is over
                for w in workers:
                    w.close(timeout=1)
                code = 0
            finally:
                os._exit(code)
        os.close(rd)

    def connect(self, host: str, port: int) -> None:
        os.write(self._wr, f"{host}:{port}".encode())

    def stop(self) -> None:
        os.close(self._wr)
        _, status = os.waitpid(self.pid, 0)
        if status != 0:
            raise harness.PhaseError(f"scripted fleet exited with status {status}")


def bring_up(connect: bool):
    """Manager listening and (with ``connect``) the whole fleet registered."""
    fleet = Fleet()
    manager = sut.Manager()
    if connect:
        fleet.connect(manager.host, manager.port)
        harness.wait_for(
            lambda: len(manager.workers) >= WORKERS, 30, "fleet registration"
        )
    return manager, fleet


def tear_down(manager, fleet) -> None:
    # a short drain can end while the last workers are still registering;
    # let them finish so close() sees the connections it has to release
    harness.wait_for(lambda: len(manager.workers) >= WORKERS, 30, "fleet registration")
    manager.close(shutdown_workers=False)
    fleet.stop()


def _setup_samples(params: dict) -> list[float]:
    """Time bring-up to 'fleet registered' ``SETUP_PROBES`` times."""
    sut.Manager, sut.ScriptedWorker, sut.Task  # resolve the lazy imports
    boot = harness.boot_seconds(params)
    samples = []
    for _ in range(SETUP_PROBES):
        with harness.Calibration() as cal:
            manager, fleet = bring_up(connect=True)
        samples.append(cal.setup_sample(boot))
        tear_down(manager, fleet)
    return samples


def _make_task(manager, n_outputs: int):
    task = sut.Task("noop")
    for j in range(n_outputs):
        task.add_output(manager.declare_temp(), f"out{j}")
    return task


def _output_counts(seed: int, n: int) -> list[int]:
    """Seeded outputs-per-task (mean 3): the only random input here."""
    rng = random.Random(f"dispatch_storm:{seed}")
    return [rng.choice((2, 3, 3, 4)) for _ in range(n)]


def _check(task, failures: list) -> None:
    if task.state is not sut.TaskState.DONE or not task.result.ok:
        failures.append(task.task_id)


def _finish(manager, n: int, failures: list, result: dict) -> None:
    """Oracle shared by both phases: every task DONE, ledger agrees."""
    done = manager.metrics.snapshot().get("tenant.default.tasks_done", {})
    if int(done.get("value", -1)) != n:
        failures.append(f"tasks_done={done.get('value')} expected {n}")
    result["attempted"] = n
    result["failed"] = len(failures)
    result["failures"] = failures[:5]


def phase_preloaded(params: dict) -> dict:
    n = params["preloaded_tasks"]
    result = {"setup_samples": _setup_samples(params)}
    tracer = trace.install(params)
    manager, fleet = bring_up(connect=False)
    failures: list = []
    counts = _output_counts(params["seed"], n)
    loadgen_cpu = time.thread_time()
    with harness.Calibration() as cal:
        for k in counts:
            manager.submit(_make_task(manager, k))
        submitted = time.perf_counter()
        fleet.connect(manager.host, manager.port)
        for _ in range(n):
            task = manager.wait(timeout=60)
            if task is None:
                failures.append("wait timed out")
                break
            _check(task, failures)
    result.update(
        ops=n,
        elapsed_s=cal.elapsed,
        slowdown=cal.slowdown,
        submit_s=submitted - cal.started,
        loadgen_cpu_s=time.thread_time() - loadgen_cpu,
    )
    _finish(manager, n, failures, result)
    if tracer:
        result["layers"] = tracer.report_manager(manager, result)
    tear_down(manager, fleet)
    return result


def phase_live(params: dict) -> dict:
    n = params["live_tasks"]
    result = {"setup_samples": _setup_samples(params)}
    tracer = trace.install(params)
    manager, fleet = bring_up(connect=True)
    failures: list = []
    counts = _output_counts(params["seed"] + 1, n)
    submitted_at: dict = {}
    stamps: dict = {}  # task id -> (submit, result) on the manager's clock
    latencies = []
    submitted = done = 0
    loadgen_cpu = time.thread_time()
    with harness.Calibration() as cal:
        while done < n:
            while submitted < n and submitted - done < INFLIGHT:
                task = _make_task(manager, counts[submitted])
                t0 = manager.now()
                submitted_at[manager.submit(task)] = t0
                submitted += 1
            task = manager.wait(timeout=60)
            if task is None:
                failures.append("wait timed out")
                break
            t1 = manager.now()
            t0 = submitted_at.pop(task.task_id)
            latencies.append(t1 - t0)
            if tracer:
                stamps[task.task_id] = (t0, t1)
            _check(task, failures)
            done += 1
    result.update(
        ops=n,
        elapsed_s=cal.elapsed,
        slowdown=cal.slowdown,
        latency_samples=len(latencies),
        loadgen_cpu_s=time.thread_time() - loadgen_cpu,
        **harness.latency_ms(latencies),
    )
    _finish(manager, n, failures, result)
    if tracer:
        result["layers"] = tracer.report_manager(manager, result, stamps)
    tear_down(manager, fleet)
    return result


def summarize(results: dict) -> dict:
    pre, live = results["preloaded"], results["live"]
    return {
        "phase1_ops_per_s": harness.rate(pre),
        "phase2_ops_per_s": harness.rate(live),
        **harness.normalised_latency(live),
    }
