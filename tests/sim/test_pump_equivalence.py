"""Virtual results the pump may never move.

The simulator's clock is virtual, so a makespan is a function of the
seed and of the *decisions* the control plane takes — how long the pump
needed to take them does not enter.  The numbers below were produced by
the pump that re-examined every queued task on every pass; any pump
that skips work (infeasible-shape record, parked tasks) must reproduce
them to the last bit, or it has changed policy, not cost.
"""

from repro.sim.cluster import SimCluster
from repro.sim.simmanager import SimManager
from repro.sim.workloads import (
    blast_cluster,
    blast_workflow,
    streaming_genome_workload,
)


def test_blast_cold_then_hot_makespans_are_pinned():
    cluster = blast_cluster(100)
    cold = blast_workflow(cluster, n_tasks=560, seed=7)
    hot = blast_workflow(cluster, n_tasks=560, seed=7)
    assert cold.tasks_done == hot.tasks_done == 560
    assert cold.makespan == 311.9155650888121
    assert hot.makespan == 224.00381301063936


def test_streaming_fan_in_makespan_is_pinned():
    cluster = SimCluster()
    cluster.add_workers(200, cores=4)
    run = streaming_genome_workload(
        SimManager(cluster, seed=7),
        n_jobs=640, fanout=16, mean_interarrival=2.0, seed=7,
    )
    assert run.stats.tasks_done == 640 * 17
    assert run.stats.makespan == 1326.1274262930544
