"""A gauge's peak is the exact peak of the count it mirrors.

The plane's gauges are read from the tables at snapshot time, and each
table records its count's high-water mark where the count rises.  So a
gauge's ``max`` after a run must equal the peak recomputed
independently — from the event log, or from the table after every
change that can raise the count — not the highest value some
snapshot or pump happened to see.
"""

from repro.core.scheduler import ReadyQueue
from repro.sim.cluster import SimCluster
from repro.sim.simmanager import SimManager
from repro.sim.workloads import streaming_genome_workload

#: categories of the fetch plane's transfer events (not TransferTable's)
FETCHES = ("@fetch", "@retrieve")


def _peak(events, rises, falls) -> int:
    level = peak = 0
    for e in events:
        if rises(e):
            level += 1
            peak = max(peak, level)
        elif falls(e):
            level -= 1
    assert level == 0, "the count did not return to zero"
    return peak


def _moving_starts(e):
    return e.kind == "transfer_start" and e.category not in FETCHES


def _moving_ends(e):
    return e.kind in ("transfer_end", "transfer_failed") and e.category not in FETCHES


def _task_starts(e):
    return e.kind == "task_start" and e.category != "library"


def _task_ends(e):
    return e.kind == "task_end" and e.category != "library"


def test_each_gauge_max_is_the_exact_peak_of_its_count(monkeypatch):
    depths = []
    push = ReadyQueue.push

    def recording_push(self, task, parked=False):
        push(self, task, parked)
        depths.append(len(self))

    monkeypatch.setattr(ReadyQueue, "push", recording_push)
    cluster = SimCluster()
    cluster.add_workers(8, cores=4)
    m = SimManager(cluster, seed=7)
    run = streaming_genome_workload(
        m, n_jobs=24, fanout=8, mean_interarrival=1.0, seed=7
    )
    assert run.stats.tasks_done == 24 * 9
    snap = m.metrics.snapshot()
    events = list(m.control.log)
    peaks = {
        "transfers.in_flight": _peak(events, _moving_starts, _moving_ends),
        "tenant.default.tasks_running": _peak(events, _task_starts, _task_ends),
        "queue.ready_depth": max(depths),
    }
    got = {name: snap[name]["max"] for name in peaks}
    assert got == peaks
    # every count rose above one, and is back at zero
    assert min(peaks.values()) > 1
    assert all(snap[name]["value"] == 0 for name in peaks)
