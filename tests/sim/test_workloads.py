"""Tests for the paper-experiment workload builders (scaled down)."""

from collections import Counter

import pytest

from repro.sim.trace import (
    ascii_task_view,
    ascii_worker_view,
    run_summary,
    series_table,
)
from repro.sim.workloads import (
    bgd_workflow,
    blast_cluster,
    blast_workflow,
    colmena_workflow,
    distribution_workflow,
    envshare_workflow,
    topeft_workflow,
)


def test_blast_cold_hot_scaled():
    cluster = blast_cluster(n_workers=10)
    cold = blast_workflow(cluster, n_tasks=80, seed=0)
    hot = blast_workflow(cluster, n_tasks=80, seed=1)
    assert cold.tasks_done == hot.tasks_done == 80
    assert hot.makespan < cold.makespan
    assert hot.transfer_counts.get("url", 0) == 0
    assert cold.transfer_counts.get("stage", 0) == 20  # 2 assets x 10 workers


def test_envshare_shared_beats_independent():
    kw = dict(n_tasks=100, n_workers=10, unpack_time=20.0, task_time=5.0)
    shared = envshare_workflow(shared=True, **kw)
    independent = envshare_workflow(shared=False, **kw)
    assert shared.makespan < independent.makespan
    assert shared.transfer_counts.get("stage", 0) == 10


def test_distribution_modes_ordering():
    # a slower source than the aggregate cluster, as at paper scale
    kw = dict(n_workers=60, file_mb=200, server_bps=0.625e9, worker_bps=4e8,
              transfer_latency=0.5)
    url = distribution_workflow("url", **kw)
    unmanaged = distribution_workflow("unmanaged", **kw)
    managed = distribution_workflow("managed", limit=3, **kw)
    assert managed.makespan < url.makespan
    assert unmanaged.makespan > managed.makespan
    assert len(managed.completion_times) == 60
    # completion times are sorted per construction
    assert managed.completion_times == sorted(managed.completion_times)


def test_distribution_unknown_mode():
    with pytest.raises(ValueError):
        distribution_workflow("bogus", n_workers=2)


def test_topeft_tree_structure_and_modes():
    kw = dict(n_chunks=32, fan_in=4, n_workers=8, process_time=10.0,
              manager_bps=0.125e9, hist_mb=20.0, growth=3.0)
    temp = topeft_workflow(in_cluster=True, **kw)
    shared = topeft_workflow(in_cluster=False, **kw)
    # 32 chunks + 8 + 2 + 1 accumulators = 43 tasks
    assert temp.n_tasks == 32 + 8 + 2 + 1
    assert temp.stats.transfer_counts.get("retrieve", 0) == 0
    assert shared.stats.transfer_counts.get("retrieve", 0) == shared.n_tasks
    assert shared.stats.makespan >= temp.stats.makespan


def test_a_brought_back_output_deleted_at_its_holder_is_no_eviction():
    """Shared-storage mode deletes each output at its holder once the
    manager holds it: a deliberate deletion, logged as ``retrieved``,
    never as a cache-pressure eviction."""
    shared = topeft_workflow(
        in_cluster=False, n_chunks=16, fan_in=4, n_workers=8, process_time=5.0
    )
    deleted = Counter(e.category for e in shared.stats.log.events("file_deleted"))
    assert deleted["retrieved"] == shared.n_tasks
    assert deleted["evicted"] == shared.stats.evictions == 0


def test_topeft_worker_ramp():
    result = topeft_workflow(
        in_cluster=True, n_chunks=16, fan_in=4, n_workers=8,
        worker_ramp=20.0, process_time=5.0,
    )
    joins = sorted(e.time for e in result.stats.log.events("worker_join"))
    # exactly one join event per worker that arrived before the end,
    # spaced by the ramp interval
    assert joins == sorted(set(joins))
    assert joins[:3] == [0.0, 20.0, 40.0]
    assert max(joins) - min(joins) >= 2 * 20.0


def test_colmena_sharedfs_load_reduction():
    kw = dict(n_inference=30, n_simulation=60, n_workers=20,
              inference_time=5.0, simulation_time=20.0)
    with_peers = colmena_workflow(peer_transfers=True, **kw)
    without = colmena_workflow(peer_transfers=False, **kw)
    assert without.sharedfs_loads == 20
    assert with_peers.sharedfs_loads == 3
    assert with_peers.peer_loads == 17


def test_bgd_ramp_and_completion():
    result = bgd_workflow(
        n_calls=120, n_workers=20, library_startup=10.0,
        call_time_range=(5.0, 10.0), function_slots=2,
    )
    assert len(result.library_ready_times) == 20
    assert result.first_call_started >= result.library_ready_times[0]
    assert result.stats.tasks_done == 120


# -- trace rendering --------------------------------------------------------


@pytest.fixture(scope="module")
def small_run():
    cluster = blast_cluster(n_workers=4)
    return blast_workflow(cluster, n_tasks=20, seed=3)


def test_ascii_worker_view_renders(small_run):
    art = ascii_worker_view(small_run.log, width=40, max_workers=4)
    lines = art.splitlines()
    assert len(lines) == 5  # 4 workers + legend
    assert "#" in art  # someone executed something
    assert "legend" in lines[-1]


def test_ascii_task_view_renders(small_run):
    art = ascii_task_view(small_run.log, width=40, max_tasks=10)
    assert len(art.splitlines()) == 10
    assert "#" in art
    assert "blast" in art


def test_ascii_task_view_empty():
    from repro.core.events import EventLog

    assert "no completed tasks" in ascii_task_view(EventLog())


def test_run_summary_fractions(small_run):
    summary = run_summary(small_run.log)
    assert summary["tasks"] == 20
    assert summary["workers"] == 4
    assert 0.0 < summary["exec_fraction"] <= 1.0
    assert summary["makespan"] > 0


def test_series_table(small_run):
    table = series_table(small_run.log, points=5)
    lines = table.splitlines()
    assert len(lines) == 7  # header + 6 samples
    assert "completed" in lines[0]
    assert lines[-1].split()[-1] == "20"


def test_sampling_caps_rows(small_run):
    art = ascii_task_view(small_run.log, width=30, max_tasks=5)
    assert len(art.splitlines()) == 5
    art2 = ascii_worker_view(small_run.log, width=30, max_workers=2)
    assert len(art2.splitlines()) == 3
