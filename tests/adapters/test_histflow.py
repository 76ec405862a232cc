"""End-to-end tests for the Coffea-style histogram executor."""

import numpy as np
import pytest

from repro.adapters.histflow import HistogramExecutor
from repro.apps.minihist import generate_batch, process
from tests.integration.conftest import Cluster


@pytest.fixture()
def cluster(tmp_path):
    c = Cluster(tmp_path, n_workers=2)
    yield c
    c.stop()


def test_executor_matches_local_computation(cluster):
    batches = [
        generate_batch(ds, 5000, seed=i)
        for i, ds in enumerate(["data", "ttbar", "wjets", "data", "ttbar", "wjets"])
    ]
    executor = HistogramExecutor(cluster.manager, fan_in=3)
    report = executor.run(batches)
    assert report.failed_chunks == []
    assert report.n_process_tasks == 6
    assert report.tree_depth >= 1

    # ground truth computed locally
    local = None
    for batch in batches:
        part = process(batch, selection_pt=25.0)
        local = part if local is None else local + part
    assert report.result.n_events == local.n_events
    assert set(report.result.hists) == set(local.hists)
    for key in local.hists:
        assert np.allclose(
            report.result.hists[key].counts, local.hists[key].counts
        )


def test_executor_tree_structure(cluster):
    batches = [generate_batch("data", 500, seed=i) for i in range(9)]
    executor = HistogramExecutor(cluster.manager, fan_in=3)
    report = executor.run(batches)
    # 9 -> 3 -> 1: two levels, 3 + 1 accumulators
    assert report.tree_depth == 2
    assert report.n_accumulate_tasks == 4
    assert report.result.n_events > 0


def test_executor_intermediate_results_stay_in_cluster(cluster):
    m = cluster.manager
    batches = [generate_batch("data", 1000, seed=i) for i in range(4)]
    HistogramExecutor(m, fan_in=2).run(batches)
    # the only FILE_DATA retrieval besides python-result plumbing is the
    # final merged histogram fetch: check no accumulate-input file was
    # ever pushed back through the manager's event log as a retrieval
    # (temp partials move worker-to-worker or stay put)
    plumbing = {t.outputs[-1][1].cache_name for t in m.tasks.values()}
    temp_moves = [
        e for e in m.log.events("transfer_start")
        if e.file and e.file.startswith("temp-") and e.file not in plumbing
    ]
    assert temp_moves
    # peer transfers of temps are fine; none may be a manager retrieval
    assert all(e.category != "@retrieve" for e in temp_moves)
    assert m.empty()


def test_executor_empty_input(cluster):
    report = HistogramExecutor(cluster.manager).run([])
    assert report.n_process_tasks == 0
    assert report.result.n_events == 0


def test_executor_validates_fan_in(cluster):
    with pytest.raises(ValueError):
        HistogramExecutor(cluster.manager, fan_in=1)
