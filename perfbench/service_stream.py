"""service_stream: every always-on feature is on the path, compute is ~0.

``repro.service.daemon run`` with its defaults (journal with per-record
fsync, txn log, metrics dump, fair share) and two real workers.  Two
tenants — one generator thread and one ``ServiceClient`` each — stream
serverless map-reduce jobs: ``PARTS`` by-reference ``part`` calls of
64 KiB, one ``digest`` call over their proxies, and the client resolves
the digest through the fetch plane.  A job is 5 calls.

* phase ``paced`` (open loop): each tenant issues ``PACED_JOBS_PER_S``
  jobs per second on a fixed schedule; a job's latency is timed from the
  moment it was *due*, so a stall is charged to every job it delays.
* phase ``flood`` (closed loop): each tenant keeps ``FLOOD_INFLIGHT``
  jobs outstanding; reports calls completed per second.

Each phase gets a fresh daemon; set-up is daemon spawn to 'both tenants
have a library installed and one warm-up job resolved'.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import threading
import time

from perfbench import harness, jobfuncs, sut, trace

WORKERS = 2
CORES = 2
TENANTS = 2
PARTS = 4
PART_BYTES = 64 << 10
CALLS_PER_JOB = PARTS + 1
LIBRARY = "perfbench"
PACED_JOBS_PER_S = 4.0  # per tenant
FLOOD_INFLIGHT = 4  # jobs per tenant
#: flood jobs per tenant per second of ``--seconds`` (half the run each phase)
FLOOD_JOBS_PER_S = 3.4
CALL_TIMEOUT = 60.0

#: the metric a traced pass is compared on (trace.overhead_frac)
HEADLINE = "phase2_ops_per_s"
PHASES = ("paced", "flood")


def plan(seed: int, seconds: float, scale: float) -> dict:
    half = seconds * scale / 2.0
    return {
        "seed": seed,
        "paced_jobs": max(4, int(PACED_JOBS_PER_S * half)),
        "flood_jobs": max(4, int(FLOOD_JOBS_PER_S * 2 * half)),
        "corrupt": False,
    }


def expected_digest(seed: int) -> str:
    """What the cluster must answer for job ``seed``, computed locally."""
    return jobfuncs.digest(
        [jobfuncs.part(seed, i, PART_BYTES) for i in range(PARTS)]
    )


class _Job:
    __slots__ = ("seed", "due", "proxies", "missing", "calls")

    def __init__(self, seed: int, due: float) -> None:
        self.seed = seed
        self.due = due
        self.proxies = [None] * PARTS
        self.missing = PARTS
        #: (task id, submit stamp, result stamp) per call, for the trace
        self.calls: list = []


class Tenant:
    """One tenant's generator: a thread, a client, a stream of jobs."""

    def __init__(self, name: str, host: str, port: int) -> None:
        self.name = name
        self.attach_window = [time.time(), 0.0]
        self.client = sut.ServiceClient(host, port, name, timeout=CALL_TIMEOUT)
        self.attach_window[1] = time.time()
        self.client.create_library(
            LIBRARY, {"part": jobfuncs.part, "digest": jobfuncs.digest},
            function_slots=CORES,
        )
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.jobs_done = 0
        self.max_lateness = 0.0
        self.cpu_s = 0.0
        self.elapsed = 0.0
        self.call_stamps: list = []
        self._open: dict = {}  # task id -> (job, part index or -1)

    # -- one job ----------------------------------------------------------

    def _call(self, job: _Job, index: int, function: str, *args) -> None:
        sent = time.time()
        reply = self.client.call(LIBRARY, function, *args)
        self._open[reply["task_id"]] = (job, index, sent)

    def _start(self, seed: int, due: float) -> None:
        job = _Job(seed, due)
        for i in range(PARTS):
            self._call(job, i, "part", seed, i, PART_BYTES)

    def _on_notice(self, notice: dict, corrupt_seed) -> None:
        job, index, sent = self._open.pop(notice["task_id"])
        job.calls.append((notice["task_id"], sent, time.time()))
        if notice.get("exit_code") != 0:
            self._finish(job, f"call failed: {notice.get('failure') or notice}")
            return
        if index >= 0:
            job.proxies[index] = self.client.result_proxy(notice)
            job.missing -= 1
            if job.missing == 0:
                self._call(job, -1, "digest", job.proxies)
            return
        value = self.client.result_proxy(notice).resolve()
        want = expected_digest(job.seed)
        if job.seed == corrupt_seed:
            want = want[::-1]  # test hook: the oracle must notice
        self._finish(job, None if value == want else f"digest {value} != {want}")

    def _finish(self, job: _Job, error) -> None:
        self.latencies.append(time.perf_counter() - job.due)
        self.call_stamps.extend(job.calls)
        self.jobs_done += 1
        if error:
            self.failures.append(f"{self.name} job {job.seed}: {error}")
            # a failed map call leaves siblings in flight: forget them
            for tid in [t for t, (j, _, _) in self._open.items() if j is job]:
                del self._open[tid]

    def _wait(self, timeout: float, corrupt_seed=None) -> None:
        """Handle one notice if one arrives within ``timeout``."""
        if not self.client.results and timeout <= 0:
            return
        try:
            notice = self.client.wait(timeout=max(timeout, 0.0))
        except sut.ClientError as exc:
            # the client has one exception type; its wait() deadline is
            # the only one of them that is not a refusal
            if "timed out" in str(exc):
                return
            raise
        self._on_notice(notice, corrupt_seed)

    # -- the three loops ---------------------------------------------------

    def warm_up(self, seed: int) -> None:
        self._start(seed, time.perf_counter())
        deadline = time.monotonic() + CALL_TIMEOUT
        while self.jobs_done < 1 and time.monotonic() < deadline:
            self._wait(0.25)
        if self.jobs_done < 1 or self.failures:
            raise harness.PhaseError(f"warm-up job failed: {self.failures}")
        self.latencies.clear()
        self.call_stamps.clear()
        self.jobs_done = 0

    def run(self, seeds: list, rate, inflight, corrupt_seed) -> None:
        """Open loop at ``rate`` jobs/s, or closed loop with ``inflight``."""
        cpu = time.thread_time()
        started = time.perf_counter()
        issued = 0
        deadline = time.monotonic() + harness.PHASE_TIMEOUT - 30
        while self.jobs_done < len(seeds) and time.monotonic() < deadline:
            now = time.perf_counter()
            if rate:
                while issued < len(seeds) and started + issued / rate <= now:
                    due = started + issued / rate
                    self.max_lateness = max(self.max_lateness, now - due)
                    self._start(seeds[issued], due)
                    issued += 1
                    now = time.perf_counter()
                next_due = started + issued / rate if issued < len(seeds) else now + 0.25
                self._wait(min(next_due - now, 0.25), corrupt_seed)
            else:
                while issued < len(seeds) and issued - self.jobs_done < inflight:
                    self._start(seeds[issued], time.perf_counter())
                    issued += 1
                self._wait(0.25, corrupt_seed)
        if self.jobs_done < len(seeds):
            self.failures.append(
                f"{self.name}: {len(seeds) - self.jobs_done} jobs timed out"
            )
        self.elapsed = time.perf_counter() - started
        self.cpu_s = time.thread_time() - cpu


def _in_threads(fns) -> None:
    """Run one callable per tenant thread; re-raise the first failure."""
    errors = []

    def guard(fn):
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=guard, args=(fn,)) for fn in fns]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def _run_phase(params: dict, phase: str) -> dict:
    traced = params["traced"]
    rng = random.Random(f"service_stream:{params['seed']}:{phase}")
    n_jobs = params[f"{phase}_jobs"]
    seeds = [[rng.randrange(1 << 30) for _ in range(n_jobs)] for _ in range(TENANTS)]
    warm = [rng.randrange(1 << 30) for _ in range(TENANTS)]
    corrupt_seed = seeds[0][0] if params["corrupt"] else None
    sut.ServiceClient  # resolve the lazy import before timing
    boot = harness.boot_seconds(params)

    state_dir = os.path.join(params["root"], f"service-{phase}")
    log = open(os.path.join(params["root"], f"daemon-{phase}.log"), "wb")
    result: dict = {}
    tenants: list = [None] * TENANTS
    daemon = None
    try:
        with harness.Calibration() as cal:
            daemon = subprocess.Popen(
                sut.daemon_argv(state_dir, WORKERS, CORES, traced),
                env=sut.child_env(), stdout=log, stderr=subprocess.STDOUT,
            )
            endpoint: dict = {}

            def listening() -> bool:
                # the daemon writes service.json in place: absent or
                # half-written both mean "not yet"
                try:
                    with open(os.path.join(state_dir, "service.json")) as f:
                        endpoint.update(json.load(f))
                except (OSError, ValueError):
                    return daemon.poll() is not None
                return True

            harness.wait_for(listening, 30, "daemon start")
            if not endpoint:
                raise harness.PhaseError(f"daemon exited with {daemon.returncode}")

            def attach(i):
                tenants[i] = Tenant(f"tenant{i}", endpoint["host"], endpoint["port"])
                tenants[i].warm_up(warm[i])

            _in_threads([lambda i=i: attach(i) for i in range(TENANTS)])
        result["setup_samples"] = [cal.setup_sample(boot)]

        rate = PACED_JOBS_PER_S if phase == "paced" else None
        with harness.Calibration() as cal:
            _in_threads(
                [
                    lambda i=i: tenants[i].run(
                        seeds[i], rate, FLOOD_INFLIGHT, corrupt_seed
                    )
                    for i in range(TENANTS)
                ]
            )
        latencies = [x for t in tenants for x in t.latencies]
        failures = [x for t in tenants for x in t.failures]
        jobs = sum(t.jobs_done for t in tenants)
        result.update(
            ops=jobs * CALLS_PER_JOB,
            elapsed_s=max(t.elapsed for t in tenants),
            slowdown=cal.slowdown,
            **harness.latency_ms(latencies),
            latency_samples=len(latencies),
            max_lateness_ms=max(t.max_lateness for t in tenants) * 1e3,
            loadgen_cpu_s=sum(t.cpu_s for t in tenants),
            attempted=TENANTS * n_jobs,
            failed=len(failures),
            failures=failures[:5],
            peak_rss_mb=harness.pid_peak_rss_mb(daemon.pid),
        )
        if traced:
            result["manager_cpu_s"] = harness.pid_cpu_s(daemon.pid)
            result["worker_cpu_s"] = sum(
                harness.pid_cpu_s(p) for p in harness.descendants(daemon.pid)
            )
    finally:
        for tenant in tenants:
            if tenant is not None:
                tenant.client.close()
        if daemon is not None:
            harness.stop_process(daemon)
        log.close()
    if daemon.returncode != 0:
        result["failed"] += 1
        result["failures"].append(f"daemon exited with {daemon.returncode}")
    if traced:
        result["layers"] = trace.report_service(state_dir, tenants, result, params)
    return result


def phase_paced(params: dict) -> dict:
    return _run_phase(params, "paced")


def phase_flood(params: dict) -> dict:
    return _run_phase(params, "flood")


def summarize(results: dict) -> dict:
    paced, flood = results["paced"], results["flood"]
    return {
        # an open loop completes what it is offered: this only falls
        # when the service cannot keep up with the schedule
        "phase1_ops_per_s": paced["ops"] / paced["elapsed_s"],
        "phase2_ops_per_s": harness.rate(flood),
        **harness.normalised_latency(paced),
    }
