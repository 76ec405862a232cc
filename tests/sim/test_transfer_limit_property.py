"""Property: per-source transfer concurrency never exceeds its limit.

The Current Transfer Table exists to bound how many simultaneous
transfers any one source serves (paper §3.3, Fig. 11).  Both runtimes
emit ``transfer_start``/``transfer_end`` events tagged with the serving
source, so the invariant is checked by replaying the shared event log:
at no instant may a source's open-transfer count exceed
``transfers.limit_for(source)``.  Randomized fan-out workflows — many
consumers of a few popular files across workers of varying counts and
limits — probe the scheduler's slot reservation under contention.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import peak_transfer_concurrency
from repro.core.policy import Policy
from repro.core.task import Task, TaskState
from repro.sim.cluster import SimCluster
from repro.sim.simmanager import SimManager


def _assert_peaks_within_limits(manager):
    peaks = peak_transfer_concurrency(manager.log)
    checked = 0
    for source, peak in peaks.items():
        if source == "@retrieve":
            continue  # result bring-back is not limit-governed
        limit = manager.transfers.limit_for(source)
        if limit is not None:
            checked += 1
            assert peak <= limit, (
                f"source {source} served {peak} concurrent transfers "
                f"(limit {limit})"
            )
    return checked


@settings(max_examples=30, deadline=None)
@given(
    n_workers=st.integers(2, 6),
    n_files=st.integers(1, 3),
    n_tasks=st.integers(4, 24),
    worker_limit=st.integers(1, 3),
    source_limit=st.integers(1, 4),
    file_size=st.integers(10_000, 5_000_000),
)
def test_property_source_concurrency_bounded(
    n_workers, n_files, n_tasks, worker_limit, source_limit, file_size
):
    cluster = SimCluster()
    cluster.add_workers(n_workers, cores=4)
    m = SimManager(
        cluster,
        Policy(
            worker_transfer_limit=worker_limit,
            source_transfer_limit=source_limit,
        ),
    )
    files = [
        m.declare_dataset(f"popular-{i}", file_size) for i in range(n_files)
    ]
    tasks = []
    for i in range(n_tasks):
        t = Task(f"consume {i}")
        t.add_input(files[i % n_files], "data")
        tasks.append(t)
        m.submit(t, duration=1.0)
    m.run(finalize=False)
    assert all(t.state == TaskState.DONE for t in tasks)
    assert _assert_peaks_within_limits(m) > 0


@settings(max_examples=20, deadline=None)
@given(
    n_workers=st.integers(2, 5),
    depth=st.integers(1, 3),
    width=st.integers(2, 6),
    worker_limit=st.integers(1, 2),
)
def test_property_peer_fanout_bounded(n_workers, depth, width, worker_limit):
    """Temp-file fan-out: peers serving replicas stay under their cap.

    Each stage produces temp files that every task of the next stage
    reads, so replicas fan out worker-to-worker — the case the
    per-worker transfer limit exists for.
    """
    cluster = SimCluster()
    cluster.add_workers(n_workers, cores=2)
    m = SimManager(cluster, Policy(worker_transfer_limit=worker_limit))
    prev_outputs = []
    for stage in range(depth):
        outputs = []
        for i in range(width):
            out = m.declare_temp(size=500_000)
            t = Task(f"stage{stage}-{i}")
            for j, dep in enumerate(prev_outputs):
                t.add_input(dep, f"in{j}")
            t.add_output(out, "out")
            outputs.append(out)
            m.submit(t, duration=1.0)
        prev_outputs = outputs
    m.run(finalize=False)
    _assert_peaks_within_limits(m)


def test_manager_pushes_throttled_under_cold_start():
    """Deterministic spot check: 8 cold workers, manager capped at 2."""
    cluster = SimCluster()
    cluster.add_workers(8, cores=1)
    m = SimManager(cluster, Policy(source_transfer_limit=2))
    shared = m.declare_dataset("cold-input", 2_000_000)
    for i in range(8):
        t = Task(f"t{i}")
        t.add_input(shared, "data")
        m.submit(t, duration=1.0)
    m.run(finalize=False)
    peaks = peak_transfer_concurrency(m.log)
    assert peaks.get("@manager", 0) == 2  # saturated but never above
    assert _assert_peaks_within_limits(m) > 0
