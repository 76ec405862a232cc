"""sim_scale: ``ControlPlane`` policy at paper scale, nothing else.

Simulator only — no sockets, no fsync, no worker processes — so wall
time here is the pump, the scheduler and the tables, and a protocol or
journal change must not move it.  The virtual results are a function of
the seed alone: at a fixed seed any change in them is a policy change.

* phase ``blast`` (batch): ``blast_workflow`` cold then hot on
  ``blast_cluster(100)`` — 100 workers, every task shares two big
  unpacked assets (paper Fig. 9 shape).
* phase ``stream`` (arrivals over virtual time):
  ``streaming_genome_workload`` on 200 workers — fan-out 16 / fan-in 1
  jobs arriving as a Poisson stream.  Job latency is *virtual*:
  arrival -> merge output, the simulator's prediction, not wall time.
"""

from __future__ import annotations

import time

from perfbench import harness, sut, trace

BLAST_WORKERS = 100
STREAM_WORKERS = 200
STREAM_CORES = 4
FANOUT = 16
MEAN_INTERARRIVAL = 2.0
SETUP_PROBES = 3
#: sizes per second of ``--seconds`` (each phase gets half the run)
BLAST_TASKS_PER_S = 35
STREAM_JOBS_PER_S = 40

#: the metric a traced pass is compared on (trace.overhead_frac)
HEADLINE = "phase1_ops_per_s"
PHASES = ("blast", "stream")


def plan(seed: int, seconds: float, scale: float) -> dict:
    return {
        "seed": seed,
        "blast_tasks": max(20, int(BLAST_TASKS_PER_S * seconds * scale)),
        "stream_jobs": max(4, int(STREAM_JOBS_PER_S * seconds * scale)),
    }


def _stream_cluster():
    cluster = sut.SimCluster()
    cluster.add_workers(STREAM_WORKERS, cores=STREAM_CORES)
    return cluster


def _setup_samples(params: dict, build) -> list[float]:
    """Interpreter start + imports + building the simulated world."""
    sut.blast_cluster, sut.SimManager, sut.streaming_genome_workload
    boot = harness.boot_seconds(params)
    samples = []
    for _ in range(SETUP_PROBES):
        with harness.Calibration() as cal:
            build()
        samples.append(cal.setup_sample(boot))
    return samples


def _check_stats(stats, expect: int, what: str, failures: list) -> None:
    ended = len(stats.log.events("task_end"))
    if stats.tasks_done != expect or ended != expect:
        failures.append(
            f"{what}: tasks_done={stats.tasks_done} task_end={ended} expected {expect}"
        )


def phase_blast(params: dict) -> dict:
    n, seed = params["blast_tasks"], params["seed"]
    result = {
        "setup_samples": _setup_samples(
            params, lambda: sut.blast_cluster(BLAST_WORKERS)
        )
    }
    tracer = trace.install(params)
    failures: list = []
    cluster = sut.blast_cluster(BLAST_WORKERS)
    cpu = time.process_time()
    with harness.Calibration() as cal:
        cold = sut.blast_workflow(cluster, n_tasks=n, seed=seed)
        hot = sut.blast_workflow(cluster, n_tasks=n, seed=seed)
    _check_stats(cold, n, "cold", failures)
    _check_stats(hot, n, "hot", failures)
    if not hot.makespan < cold.makespan:
        failures.append(f"hot makespan {hot.makespan} not below cold {cold.makespan}")
    result.update(
        ops=2 * n,
        elapsed_s=cal.elapsed,
        slowdown=cal.slowdown,
        cold_virtual_makespan_s=cold.makespan,
        hot_virtual_makespan_s=hot.makespan,
        sim_cpu_s=time.process_time() - cpu,
        attempted=2 * n,
        failed=len(failures),
        failures=failures[:5],
    )
    if tracer:
        result["layers"] = tracer.report_sim(result, [cold, hot])
    return result


def phase_stream(params: dict) -> dict:
    jobs, seed = params["stream_jobs"], params["seed"]
    result = {
        "setup_samples": _setup_samples(
            params, lambda: sut.SimManager(_stream_cluster(), seed=seed)
        )
    }
    tracer = trace.install(params)
    failures: list = []
    manager = sut.SimManager(_stream_cluster(), seed=seed)
    cpu = time.process_time()
    with harness.Calibration() as cal:
        run = sut.streaming_genome_workload(
            manager, n_jobs=jobs, fanout=FANOUT,
            mean_interarrival=MEAN_INTERARRIVAL, seed=seed,
        )
    n_tasks = jobs * (FANOUT + 1)
    _check_stats(run.stats, n_tasks, "stream", failures)
    unfinished = [i for i, (name, _size) in enumerate(run.outputs) if not name]
    if unfinished:
        failures.append(f"{len(unfinished)} stream jobs produced no merge output")
    latencies = [
        done - arrived
        for done, arrived in zip(run.job_completions, run.arrival_times)
    ]
    result.update(
        ops=n_tasks,
        elapsed_s=cal.elapsed,
        slowdown=cal.slowdown,
        **harness.latency_ms(latencies),
        latency_samples=len(latencies),
        stream_virtual_makespan_s=run.stats.makespan,
        sim_cpu_s=time.process_time() - cpu,
        attempted=n_tasks,
        failed=len(failures),
        failures=failures[:5],
    )
    if tracer:
        result["layers"] = tracer.report_sim(
            result, [run.stats], manager.metrics.snapshot()
        )
    return result


def summarize(results: dict) -> dict:
    blast, stream = results["blast"], results["stream"]
    return {
        "phase1_ops_per_s": harness.rate(blast),
        "phase2_ops_per_s": harness.rate(stream),
        **harness.normalised_latency(stream, virtual=True),
        "virtual_makespan_s": blast["cold_virtual_makespan_s"]
        + blast["hot_virtual_makespan_s"]
        + stream["stream_virtual_makespan_s"],
    }
