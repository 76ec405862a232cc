"""Virtual results the pump may never move.

The simulator's clock is virtual, so a makespan is a function of the
seed and of the *decisions* the control plane takes — how long the pump
needed to take them does not enter.  The numbers below were produced by
the pump that re-examined every queued task on every pass; any pump
that skips work (infeasible-shape record, parked tasks) must reproduce
them to the last bit, or it has changed policy, not cost.

A makespan is one number; ``DIGESTS`` pins the whole decision sequence.
Each is the sha256 of every event of a workload's log — ``(time, kind,
task, worker, file, size, category)``, times as exact float ``repr`` —
taken at ``d055ddb``, before the network armed one timer per change and
before a waiting stage was woken by the event it waits for.  A pump or
a network model that takes the same decisions at the same virtual
instants reproduces them under any ``PYTHONHASHSEED``; one that follows
the iteration order of a set of ids does not.  To regenerate (only ever
at a commit whose decisions are the reference)::

    PYTHONPATH=src python -m tests.sim.test_pump_equivalence

Random cache names carry a per-process run salt (``-rnd-<12 hex>-``);
it is stripped from the rows, and pinned while a workload runs because
spec-hashed names (``temp-md5-…``) digest the salted names of their
inputs, which no stripping afterwards can undo.
"""

import hashlib
import re
import uuid
from unittest import mock

import pytest

from repro.sim.cluster import SimCluster
from repro.sim.simmanager import SimManager
from repro.sim.workloads import (
    bgd_workflow,
    blast_cluster,
    blast_workflow,
    distribution_workflow,
    streaming_genome_workload,
    topeft_workflow,
)
from tests.sim.test_chaos_sim import _hostile_plan, _run_chaos

_SALT = re.compile(r"-rnd-[0-9a-f]{12}-")


def _pinned_salt():
    return mock.patch.object(uuid, "uuid4", lambda: uuid.UUID(int=0))


def event_digest(*logs) -> str:
    """sha256 over every event of ``logs``, run salt stripped."""
    h = hashlib.sha256()
    for log in logs:
        for e in log.events():
            row = (e.time, e.kind, e.task, e.worker, e.file, e.size, e.category)
            h.update(_SALT.sub("-rnd-", repr(row)).encode() + b"\n")
    return h.hexdigest()


def _blast():
    cluster = blast_cluster(100)
    cold = blast_workflow(cluster, n_tasks=560, seed=7)
    hot = blast_workflow(cluster, n_tasks=560, seed=7)
    return cold, hot


def _stream():
    cluster = SimCluster()
    cluster.add_workers(200, cores=4)
    return streaming_genome_workload(
        SimManager(cluster, seed=7),
        n_jobs=640, fanout=16, mean_interarrival=2.0, seed=7,
    )


#: workload name -> callable returning the event logs to digest
WORKLOADS = {
    "blast_cold_hot_100w": lambda: [s.log for s in _blast()],
    "stream_200w": lambda: [_stream().stats.log],
    "distribution_url_500w": lambda: [
        distribution_workflow("url", n_workers=500, seed=7).stats.log
    ],
    "distribution_unmanaged_500w": lambda: [
        distribution_workflow("unmanaged", n_workers=500, seed=7).stats.log
    ],
    "distribution_managed_500w": lambda: [
        distribution_workflow("managed", n_workers=500, seed=7).stats.log
    ],
    "topeft_in_cluster": lambda: [topeft_workflow(in_cluster=True, seed=7).stats.log],
    "topeft_shared_storage": lambda: [
        topeft_workflow(in_cluster=False, seed=7).stats.log
    ],
    "bgd_200w": lambda: [bgd_workflow(seed=7).stats.log],
    "chaos_seed42": lambda: [_run_chaos(42, _hostile_plan(42))[1].log],
}

#: generated at d055ddb with the command in the module docstring (identical
#: under PYTHONHASHSEED=0, =12345 and =random)
DIGESTS = {
    "blast_cold_hot_100w": "df7241308b8e31eca259f87ad691f79c8527d934fd70d48138022f88fdebc10c",
    "stream_200w": "40770cb4b455bb85de3f0adfd40f2bbaf79384afc602ab937c19160aa708c56d",
    "distribution_url_500w": "c8dc674277caf7645be039c338a07b954805316b6c08720d4d8554746dfde3f3",
    "distribution_unmanaged_500w": "520cc46af5e8d3ffb49a6f63f10797b75e8077d22f5ab89826ed7a4f7a6d8f30",
    "distribution_managed_500w": "71919ba3f7d7eba829983a616ee7a1f2dc041b3bb42f57f08a4512e77d9880c2",
    "topeft_in_cluster": "a246273a4ac8fed05a5f8067d8e9c961fb7822fb4ff64f3cefba6e4232fcb555",
    "topeft_shared_storage": "73bec61480d78cbf75c10c327bac1d38e798fe7b5bf1193e9436feb4e56ca6fc",
    "bgd_200w": "bd0bb546c089e64a1a48f2e2b1b310285d1071a77f2c0903af7861ef26042d14",
    "chaos_seed42": "22adba884184e723e0fe9d97e9479b92ab691a6757fe21710952456ec4081c31",
}


def test_blast_cold_then_hot_makespans_are_pinned():
    with _pinned_salt():
        cold, hot = _blast()
    assert cold.tasks_done == hot.tasks_done == 560
    assert cold.makespan == 311.9155650888121
    assert hot.makespan == 224.00381301063936
    assert event_digest(cold.log, hot.log) == DIGESTS["blast_cold_hot_100w"]


def test_streaming_fan_in_makespan_is_pinned():
    with _pinned_salt():
        run = _stream()
    assert run.stats.tasks_done == 640 * 17
    assert run.stats.makespan == 1326.1274262930544
    assert event_digest(run.stats.log) == DIGESTS["stream_200w"]


@pytest.mark.parametrize(
    "name", [n for n in WORKLOADS if n not in ("blast_cold_hot_100w", "stream_200w")]
)
def test_event_log_digest_is_pinned(name):
    with _pinned_salt():
        logs = WORKLOADS[name]()
    assert event_digest(*logs) == DIGESTS[name]


if __name__ == "__main__":
    print("DIGESTS = {")
    for _name, _build in WORKLOADS.items():
        with _pinned_salt():
            print(f'    "{_name}": "{event_digest(*_build())}",')
    print("}")
