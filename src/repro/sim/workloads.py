"""Workload builders reproducing the paper's evaluation scenarios.

Each function constructs and executes one of the paper's experiments on
a simulated cluster and returns its :class:`~repro.sim.simmanager.SimRunStats`
(plus experiment-specific extras).  Sizes, durations, and scales default
to the paper's numbers but every knob is a parameter so the benchmark
harness can also run scaled-down versions quickly.

Experiment ↔ figure map:

* :func:`blast_workflow` — Fig. 9 (cold vs hot persistent cache)
* :func:`envshare_workflow` — Fig. 10 (independent vs shared mini-tasks)
* :func:`distribution_workflow` — Fig. 11 (transfer methods for common data)
* :func:`topeft_workflow` — Fig. 12 a/d and Fig. 13 (in-cluster vs shared storage)
* :func:`colmena_workflow` — Fig. 12 b/e (peer distribution of a software env)
* :func:`bgd_workflow` — Fig. 12 c/f (serverless ramp-up)

Beyond the paper's figures, :func:`streaming_genome_workload` drives a
1000-genome-style wide fan-out/fan-in as a *continuous arrival stream*
(jobs land at Poisson or trace-driven times, not as one batch), and
:class:`Autoscaler` + :class:`SimAutoscaleDriver` grow/shrink the
simulated fleet against ready-queue depth — the elastic-cluster
scenarios of ROADMAP item 5.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.core.autoscale import Autoscaler
from repro.core.library import FunctionCall
from repro.core.policy import Policy
from repro.core.resources import Resources
from repro.core.task import Task
from repro.sim.cluster import SimCluster, TEN_GBE
from repro.sim.simmanager import SimManager, SimRunStats

__all__ = [
    "blast_cluster",
    "blast_workflow",
    "envshare_workflow",
    "distribution_workflow",
    "topeft_workflow",
    "colmena_workflow",
    "bgd_workflow",
    "StreamingResult",
    "streaming_arrivals",
    "streaming_genome_workload",
    "Autoscaler",
    "SimAutoscaleDriver",
]

MB = 1_000_000


# ---------------------------------------------------------------------------
# Fig. 9 — BLAST with persistent caching
# ---------------------------------------------------------------------------

def blast_cluster(n_workers: int = 100, cores: int = 4) -> SimCluster:
    """The Fig. 9 cluster: 100 4-core workers on 10 GbE."""
    cluster = SimCluster()
    cluster.add_workers(n_workers, cores=cores, disk=200_000)
    return cluster


def blast_workflow(
    cluster: SimCluster,
    n_tasks: int = 1000,
    software_mb: int = 610,
    db_mb: int = 500,
    unpack_time: float = 30.0,
    mean_task_time: float = 30.0,
    seed: int = 0,
) -> SimRunStats:
    """One BLAST run: software + DB tarballs from an archive, unpacked
    once per worker, shared by every query task (paper Fig. 3).

    Run twice against the same cluster for the cold/hot comparison —
    all big assets are ``worker``-lifetime, so the second run finds
    them cached.
    """
    rng = random.Random(seed)
    m = SimManager(cluster, seed=seed)
    software_url = m.declare_url(
        "https://archive.example/blast.tar.gz", software_mb * MB, cache="worker"
    )
    software = m.declare_untar(
        software_url, unpacked_size=3 * software_mb * MB,
        stage_time=unpack_time, cache="worker",
    )
    db_url = m.declare_url(
        "https://archive.example/landmark.tar.gz", db_mb * MB, cache="worker"
    )
    database = m.declare_untar(
        db_url, unpacked_size=2 * db_mb * MB, stage_time=unpack_time, cache="worker"
    )
    for i in range(n_tasks):
        query = m.declare_dataset(f"query-{i}", 2_000, cache="task")
        t = Task("blast/bin/blast -db landmark -q query").set_category("blast")
        t.add_input(query, "query")
        t.add_input(software, "blast")
        t.add_input(database, "landmark")
        t.set_env("BLASTDB", "landmark")
        m.submit(t, duration=rng.expovariate(1.0 / mean_task_time) + 5.0)
    return m.run()


# ---------------------------------------------------------------------------
# Fig. 10 — independent tasks vs shared mini-tasks
# ---------------------------------------------------------------------------

def envshare_workflow(
    shared: bool,
    n_tasks: int = 1000,
    n_workers: int = 50,
    cores: int = 4,
    env_mb: int = 610,
    unpack_time: float = 30.0,
    task_time: float = 10.0,
    seed: int = 0,
) -> SimRunStats:
    """The Fig. 10 experiment: 1000 sleep-10s tasks needing a 610 MB env.

    ``shared=True`` declares one unpack mini-task whose product every
    task mounts (unpacked once per worker); ``shared=False`` gives each
    task its own logically distinct expansion, so every task pays the
    unpack (the tarball itself is still cached per worker — TaskVine
    cannot dedup work the user declared as distinct).
    """
    cluster = SimCluster()
    cluster.add_workers(n_workers, cores=cores, disk=2_000_000)
    m = SimManager(cluster, seed=seed)
    tarball = m.declare_dataset("env.tar.gz", env_mb * MB, cache="workflow")
    shared_env = None
    if shared:
        shared_env = m.declare_untar(
            tarball, unpacked_size=3 * env_mb * MB, stage_time=unpack_time
        )
    for i in range(n_tasks):
        t = Task("app --sleep").set_category("sleep")
        if shared:
            t.add_input(shared_env, "env")
            m.submit(t, duration=task_time)
        else:
            # expansion is part of the task itself: same unpack cost,
            # paid inside every task execution
            t.add_input(tarball, "env.tar.gz")
            m.submit(t, duration=task_time + unpack_time)
    return m.run()


# ---------------------------------------------------------------------------
# Fig. 11 — transfer methods for common data
# ---------------------------------------------------------------------------

@dataclass
class DistributionResult:
    """Fig. 11 outcome: per-task completion times for one policy."""

    stats: SimRunStats
    completion_times: list[float]

    @property
    def makespan(self) -> float:
        return max(self.completion_times) if self.completion_times else 0.0


def distribution_workflow(
    mode: str,
    n_workers: int = 500,
    file_mb: int = 200,
    limit: Optional[int] = 3,
    server_bps: float = TEN_GBE,
    worker_bps: float = TEN_GBE,
    transfer_latency: float = 0.0,
    seed: int = 0,
) -> DistributionResult:
    """Distribute one common file to every worker (paper Fig. 11).

    Modes:

    * ``"url"`` — every worker downloads from the remote URL
      independently (Fig. 11a): peer transfers disabled.
    * ``"unmanaged"`` — worker-to-worker transfers with **no**
      concurrency limit (Fig. 11b): the first replica holder becomes a
      hotspot.
    * ``"managed"`` — worker-to-worker transfers with a per-source
      limit (Fig. 11c; the paper found 3 slightly better than 2 or 4).
    """
    cluster = SimCluster(transfer_latency=transfer_latency)
    cluster.add_workers(n_workers, cores=1, disk=10_000_000, up_bps=worker_bps)
    if mode == "url":
        policy = Policy(worker_transfer_limit=0, source_transfer_limit=None)
    elif mode == "unmanaged":
        policy = Policy(worker_transfer_limit=None, source_transfer_limit=1)
    elif mode == "managed":
        policy = Policy(worker_transfer_limit=limit, source_transfer_limit=1)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    m = SimManager(cluster, policy, seed=seed)
    data = m.declare_url(
        "https://data.example/common.bin", file_mb * MB, server_bps=server_bps
    )
    tasks = []
    for _ in range(n_workers):
        t = Task("consume common.bin").set_category("consume")
        t.add_input(data, "common.bin")
        tasks.append(t)
        m.submit(t, duration=1.0)
    stats = m.run()
    completions = sorted(t.finished_at - stats.started for t in tasks)
    return DistributionResult(stats=stats, completion_times=completions)


# ---------------------------------------------------------------------------
# Fig. 12 a/d + Fig. 13 — TopEFT
# ---------------------------------------------------------------------------

@dataclass
class TopEFTResult:
    """TopEFT run outcome with reduction-tree bookkeeping."""

    stats: SimRunStats
    n_tasks: int
    final_output_bytes: int


def topeft_workflow(
    in_cluster: bool = True,
    n_chunks: int = 256,
    fan_in: int = 8,
    n_workers: int = 64,
    cores: int = 4,
    real_fraction: float = 0.2,
    chunk_mb: float = 50.0,
    hist_mb: float = 4.0,
    growth: float = 2.0,
    process_time: float = 30.0,
    mc_multiplier: float = 2.0,
    worker_ramp: float = 0.0,
    manager_bps: Optional[float] = None,
    seed: int = 0,
) -> TopEFTResult:
    """The TopEFT analysis shape: process chunks → accumulate up a tree.

    ``in_cluster=True`` keeps partial histograms as TempFiles at the
    workers (Fig. 13b); ``False`` returns every output to the manager
    and re-distributes it for accumulation (Fig. 13a, "shared
    storage").  Accumulation outputs grow by ``growth`` per tree level,
    reproducing the paper's exponentially growing accumulations.
    ``worker_ramp`` > 0 staggers worker arrival (Fig. 12d).
    ``manager_bps`` caps the manager/head-node link (the shared-storage
    bottleneck of Fig. 13a).
    """
    rng = random.Random(seed)
    cluster = SimCluster(
        manager_up_bps=manager_bps if manager_bps is not None else TEN_GBE,
        manager_down_bps=manager_bps,
    )
    for i in range(n_workers):
        cluster.add_worker(
            cores=cores, disk=2_000_000, at=i * worker_ramp
        )
    m = SimManager(cluster, seed=seed)

    def declare_partial(size: int):
        if in_cluster:
            return m.declare_temp(size=size)
        return m.declare_output(size=size, bring_back=True)

    n_tasks = 0
    # processing: one task per chunk, outputs one partial histogram set
    partials = []
    n_real = int(n_chunks * real_fraction)
    for i in range(n_chunks):
        is_real = i < n_real
        dataset = m.declare_dataset(
            f"chunk-{i}", int(chunk_mb * MB), cache="workflow"
        )
        out = declare_partial(int(hist_mb * MB))
        t = Task(f"process chunk {i}")
        t.set_category("process-data" if is_real else "process-mc")
        if not is_real:
            t.set_resources(Resources(cores=1, memory=2000))
        t.add_input(dataset, "events")
        t.add_output(out, "hists")
        duration = rng.expovariate(1.0 / process_time) + 5.0
        if not is_real:
            duration *= mc_multiplier
        m.submit(t, duration=duration)
        partials.append(out)
        n_tasks += 1

    # accumulation tree: merge fan_in partials per task, level by level
    level = 0
    size = hist_mb * MB
    while len(partials) > 1:
        level += 1
        size *= growth
        merged_level = []
        for j in range(0, len(partials), fan_in):
            group = partials[j : j + fan_in]
            if len(group) == 1:
                merged_level.append(group[0])
                continue
            out = declare_partial(int(size))
            t = Task(f"accumulate L{level}.{j}").set_category("accumulate")
            for idx, p in enumerate(group):
                t.add_input(p, f"part{idx}")
            t.add_output(out, "merged")
            m.submit(t, duration=5.0 + 2.0 * len(group))
            merged_level.append(out)
            n_tasks += 1
        partials = merged_level

    stats = m.run()
    return TopEFTResult(
        stats=stats, n_tasks=n_tasks, final_output_bytes=int(size)
    )


# ---------------------------------------------------------------------------
# Fig. 12 b/e — Colmena-XTB
# ---------------------------------------------------------------------------

@dataclass
class ColmenaResult:
    """Colmena run outcome with shared-filesystem load accounting."""

    stats: SimRunStats
    #: transfers served by the shared filesystem (the paper's 108 vs 3)
    sharedfs_loads: int
    peer_loads: int


def colmena_workflow(
    peer_transfers: bool = True,
    n_inference: int = 228,
    n_simulation: int = 1000,
    n_workers: int = 108,
    cores: int = 4,
    env_mb: int = 1400,
    unpack_time: float = 60.0,
    inference_time: float = 15.0,
    simulation_time: float = 120.0,
    sharedfs_bps: float = 5e9,
    seed: int = 0,
) -> ColmenaResult:
    """The Colmena-XTB shape: every task needs one 1.4 GB software env.

    With ``peer_transfers`` the tarball is fetched from the shared
    filesystem a handful of times and then spread worker-to-worker
    (limit 3/source); without, every worker hits the shared FS.
    """
    rng = random.Random(seed)
    cluster = SimCluster()
    cluster.add_workers(n_workers, cores=cores, disk=4_000_000)
    # with peer transfers on, the shared filesystem is also throttled to
    # 3 concurrent reads — that is what forces the remaining workers to
    # wait for peers and yields the paper's 108 → 3 shared-FS load drop;
    # without, every worker hits the shared FS directly
    m = SimManager(
        cluster,
        Policy(
            worker_transfer_limit=3 if peer_transfers else 0,
            source_transfer_limit=3 if peer_transfers else None,
        ),
        seed=seed,
    )
    env_url = m.declare_url(
        "https://sharedfs/colmena-env.tar.gz", env_mb * MB,
        cache="workflow", server_bps=sharedfs_bps,
    )
    env = m.declare_untar(
        env_url, unpacked_size=3 * env_mb * MB, stage_time=unpack_time
    )
    for i in range(n_inference):
        t = Task(f"inference {i}").set_category("inference")
        t.add_input(env, "env")
        m.submit(t, duration=rng.expovariate(1.0 / inference_time) + 2.0)
    for i in range(n_simulation):
        t = Task(f"simulation {i}").set_category("simulation")
        t.add_input(env, "env")
        m.submit(t, duration=rng.expovariate(1.0 / simulation_time) + 10.0)
    stats = m.run()
    return ColmenaResult(
        stats=stats,
        sharedfs_loads=stats.transfer_counts.get("url", 0),
        peer_loads=stats.transfer_counts.get("peer", 0),
    )


# ---------------------------------------------------------------------------
# Fig. 12 c/f — BGD serverless
# ---------------------------------------------------------------------------

@dataclass
class BGDSimResult:
    """BGD serverless run outcome."""

    stats: SimRunStats
    first_call_started: float
    library_ready_times: list[float]


def bgd_workflow(
    n_calls: int = 2000,
    n_workers: int = 200,
    cores: int = 4,
    env_mb: int = 89,
    library_startup: float = 20.0,
    call_time_range: tuple[float, float] = (50.0, 100.0),
    function_slots: int = 3,
    seed: int = 0,
) -> BGDSimResult:
    """The BGD shape: 2000 FunctionCalls through per-worker libraries.

    Library instances deploy (env transfer + startup) before any call
    can run; FunctionCall throughput ramps as instances come up and
    peaks once all workers host one (paper Fig. 12c/f).
    """
    rng = random.Random(seed)
    cluster = SimCluster()
    cluster.add_workers(n_workers, cores=cores, disk=2_000_000)
    m = SimManager(cluster, seed=seed)
    env = m.declare_dataset("bgd-env.tar.gz", env_mb * MB, cache="workflow")
    m.create_library(
        "bgd",
        env_files=[env],
        # the library is the whole charge for its calls: one core per
        # single-threaded call it runs at once (paper §3.4)
        resources=Resources(cores=function_slots),
        startup_time=library_startup,
        slots=function_slots,
    )
    m.install_library("bgd")
    calls = []
    lo, hi = call_time_range
    for i in range(n_calls):
        fc = FunctionCall("bgd", "gradient_descent", i)
        calls.append(fc)
        m.submit(fc, duration=rng.uniform(lo, hi))
    stats = m.run()
    ready = sorted(
        e.time - stats.started for e in stats.log.events("library_ready")
    )
    first = min((fc.started_at for fc in calls if fc.started_at is not None), default=0.0)
    return BGDSimResult(
        stats=stats,
        first_call_started=first - stats.started,
        library_ready_times=ready,
    )


# ---------------------------------------------------------------------------
# Elastic clusters: continuous-arrival streaming + autoscaling (ROADMAP 5a/5c)
# ---------------------------------------------------------------------------

@dataclass
class StreamingResult:
    """Outcome of one continuous-arrival streaming run."""

    stats: SimRunStats
    jobs: int
    #: virtual times each job arrived (was submitted)
    arrival_times: list[float]
    #: virtual time each job's merge output landed, by job index
    job_completions: list[float]
    #: merge-output cache name and size per job — the run's "outputs":
    #: same seed ⇒ same names, so two runs (static vs elastic fleet)
    #: are compared for identical products with these
    outputs: list[tuple[str, int]]


def streaming_arrivals(
    n_jobs: int, mean_interarrival: float, seed: int
) -> list[float]:
    """Seeded Poisson arrival times for ``n_jobs`` (strictly increasing)."""
    rng = random.Random(f"{seed}:arrivals")
    times, t = [], 0.0
    for _ in range(n_jobs):
        t += rng.expovariate(1.0 / mean_interarrival)
        times.append(t)
    return times


def streaming_genome_workload(
    m: SimManager,
    n_jobs: int = 20,
    fanout: int = 8,
    mean_interarrival: float = 10.0,
    input_mb: float = 8.0,
    partial_mb: float = 2.0,
    task_time: float = 12.0,
    merge_time: float = 6.0,
    seed: int = 0,
    arrivals: Optional[list[float]] = None,
    until: Optional[float] = None,
) -> StreamingResult:
    """A 1000-genome-style stream: wide fan-out/fan-in jobs arriving
    continuously (SNIPPETS.md Snippet 1 shape, driven as a stream).

    Each job is ``fanout`` independent alignment tasks over a shared
    per-job input, their partial outputs merged by one fan-in task.
    Jobs are submitted at Poisson arrival times (or an explicit
    ``arrivals`` trace) through the sim clock — the manager sees a
    living service workload, not a batch.  All per-job randomness is
    scoped to ``(seed, job index)``, so the task stream is identical
    regardless of fleet size or membership churn: two runs with the
    same seed produce the same outputs, which is what the elastic
    scenario tests assert.

    ``m`` is a ready :class:`SimManager` (fault injectors and
    autoscale drivers attach before this call).
    """
    times = (
        list(arrivals)
        if arrivals is not None
        else streaming_arrivals(n_jobs, mean_interarrival, seed)
    )
    if len(times) != n_jobs:
        raise ValueError("arrivals trace length must match n_jobs")
    completions: list[float] = [0.0] * n_jobs
    outputs: list[tuple[str, int]] = [("", 0)] * n_jobs

    def submit_job(i: int) -> None:
        m.pending_arrivals -= 1
        rng = random.Random(f"{seed}:job{i}")
        genome = m.declare_dataset(
            f"genome-{i}", int(input_mb * MB), cache="workflow"
        )
        partials = []
        for k in range(fanout):
            part = m.declare_temp(size=int(partial_mb * MB))
            t = Task(f"align job{i}.{k}").set_category("align")
            t.add_input(genome, "genome")
            t.add_output(part, "part")
            m.submit(t, duration=rng.expovariate(1.0 / task_time) + 1.0)
            partials.append(part)
        merged = m.declare_temp(size=int(partial_mb * MB * fanout))
        mt = Task(f"merge job{i}").set_category("merge")
        for idx, p in enumerate(partials):
            mt.add_input(p, f"part{idx}")
        mt.add_output(merged, "merged")
        m.submit(mt, duration=rng.expovariate(1.0 / merge_time) + 1.0)
        merge_tasks.append((i, mt, merged))

    merge_tasks: list[tuple[int, Task, object]] = []
    m.pending_arrivals += n_jobs
    for i, at in enumerate(times):
        m.sim.schedule_at(at, submit_job, i)
    stats = m.run(until=until)
    for i, mt, merged in merge_tasks:
        if mt.finished_at is not None:
            completions[i] = mt.finished_at
            outputs[i] = (merged.cache_name, merged.size or 0)
    return StreamingResult(
        stats=stats,
        jobs=n_jobs,
        arrival_times=times,
        job_completions=completions,
        outputs=outputs,
    )


class SimAutoscaleDriver:
    """Ticks the control plane's autoscaler on a simulated cluster.

    Every ``interval`` virtual seconds the plane sizes the fleet to its
    ready queue (:meth:`ControlPlane.autoscale_tick`: which workers
    drain is its decision, logged as an ``autoscale`` event); this
    driver adds the workers it asks for and re-arms the clock.
    """

    def __init__(
        self,
        manager: SimManager,
        policy: Autoscaler,
        interval: float = 5.0,
        cores: int = 4,
        memory: int = 16_000,
        disk: int = 100_000,
        prefix: str = "auto",
    ) -> None:
        self.m = manager
        self.policy = policy
        self.interval = interval
        self.cores = cores
        self.memory = memory
        self.disk = disk
        self.prefix = prefix
        #: workers added / drains begun so far
        self.joins = 0
        self.drains = 0
        manager.schedule(interval, self._tick)

    def _tick(self) -> None:
        add, drained = self.m.control.autoscale_tick(self.policy)
        for _ in range(add):
            self.joins += 1
            self.m.cluster.add_worker(
                worker_id=f"{self.prefix}{self.joins:03d}",
                cores=self.cores,
                memory=self.memory,
                disk=self.disk,
                at=self.m.sim.now,
            )
        self.drains += drained
        self.m.schedule(self.interval, self._tick)
