"""Stateful (rule-based) hypothesis testing of the manager's tables.

Drives random interleavings of replica updates, transfer lifecycles,
and worker departures against the File Replica Table and Current
Transfer Table, holding the invariants DESIGN.md §5 lists at every
step.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.control_plane import ControlPlane
from repro.core.policy import Policy
from repro.core.replica_table import ReplicaTable
from repro.core.transfer_table import MANAGER_SOURCE, MINITASK_SOURCE, source_kind

WORKERS = [f"w{i}" for i in range(4)]
FILES = [f"f{i}" for i in range(6)]
SOURCES = WORKERS + [MANAGER_SOURCE, "url:host", MINITASK_SOURCE]


class TableMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.replicas = ReplicaTable()
        # the table of a control plane (which nothing else drives here),
        # so the gauges it derives from the table can be held to it
        self.control = ControlPlane(
            port=None, policy=Policy(worker_transfer_limit=2, source_transfer_limit=3)
        )
        self.transfers = self.control.transfers
        self.model_replicas: set[tuple[str, str]] = set()
        self.active_ids: list[str] = []
        #: the most transfers ever in flight at once, per source kind
        #: and all but stagings together, recounted after every begin
        self.model_peaks: dict[str, int] = {}

    # -- replica rules ------------------------------------------------

    @rule(name=st.sampled_from(FILES), worker=st.sampled_from(WORKERS))
    def add_replica(self, name, worker):
        self.replicas.add_replica(name, worker, size=100)
        self.model_replicas.add((name, worker))

    @rule(name=st.sampled_from(FILES), worker=st.sampled_from(WORKERS))
    def remove_replica(self, name, worker):
        self.replicas.remove_replica(name, worker)
        self.model_replicas.discard((name, worker))

    @rule(worker=st.sampled_from(WORKERS))
    def worker_leaves(self, worker):
        self.replicas.remove_worker(worker)
        self.model_replicas = {
            (n, w) for n, w in self.model_replicas if w != worker
        }
        self.transfers.cancel_for_worker(worker)
        self.active_ids = [
            tid
            for tid in self.active_ids
            if any(t.transfer_id == tid for t in self.transfers.active())
        ]

    @rule(name=st.sampled_from(FILES))
    def forget_file(self, name):
        self.replicas.forget_name(name)
        self.model_replicas = {
            (n, w) for n, w in self.model_replicas if n != name
        }

    # -- transfer rules ---------------------------------------------------

    @rule(
        name=st.sampled_from(FILES),
        source=st.sampled_from(SOURCES),
        dest=st.sampled_from(WORKERS),
    )
    def begin_transfer(self, name, source, dest):
        if self.transfers.in_flight(name, dest):
            return
        if not self.transfers.source_available(source):
            return
        t = self.transfers.begin(name, source, dest, size=10)
        self.active_ids.append(t.transfer_id)
        recount = self._recount()
        recount["moving"] = sum(n for kind, n in recount.items() if kind != "stage")
        for key, n in recount.items():
            self.model_peaks[key] = max(self.model_peaks.get(key, 0), n)

    def _recount(self) -> dict[str, int]:
        recount = {}
        for t in self.transfers.active():
            kind = source_kind(t.source)
            recount[kind] = recount.get(kind, 0) + 1
        return recount

    @precondition(lambda self: self.active_ids)
    @rule(data=st.data())
    def complete_transfer(self, data):
        tid = data.draw(st.sampled_from(self.active_ids))
        record = self.transfers.complete(tid)
        self.active_ids.remove(tid)
        # arrival: the destination now holds the file
        self.replicas.add_replica(record.cache_name, record.dest_worker, size=100)
        self.model_replicas.add((record.cache_name, record.dest_worker))

    # -- invariants -----------------------------------------------------

    @invariant()
    def replica_tables_match_model(self):
        actual = {
            (n, w) for n in self.replicas.names() for w in self.replicas.locate(n)
        }
        assert actual == self.model_replicas
        assert self.replicas.total_replicas() == len(self.model_replicas)

    @invariant()
    def bidirectional_consistency(self):
        for n, w in self.model_replicas:
            assert self.replicas.has_replica(n, w)
            assert n in self.replicas.holdings(w)

    @invariant()
    def source_loads_match_active(self):
        active = self.transfers.active()
        assert len(active) == len(self.active_ids)
        by_source = {}
        for t in active:
            by_source[t.source] = by_source.get(t.source, 0) + 1
        for source, count in by_source.items():
            assert self.transfers.source_load(source) == count

    @invariant()
    def transfer_gauges_match_a_recount_of_active(self):
        """The gauges read the table's own per-kind counters and peaks;
        whatever path closed a transfer (``complete`` or a departed
        worker's ``cancel_for_worker``), they equal a walk of
        ``active()``, and each peak the highest such walk after a begin."""
        recount = self._recount()
        gauges = self.control.metrics.snapshot()
        staging = recount.pop("stage", 0)
        peaks = self.model_peaks
        assert gauges["staging.in_flight"] == {
            "type": "gauge", "value": staging, "max": peaks.get("stage", 0)
        }
        assert gauges["transfers.in_flight"] == {
            "type": "gauge", "value": sum(recount.values()), "max": peaks.get("moving", 0)
        }
        for kind in ("manager", "url", "peer"):
            assert gauges[f"transfers.per_source.{kind}"] == {
                "type": "gauge", "value": recount.get(kind, 0), "max": peaks.get(kind, 0)
            }

    @invariant()
    def limits_never_exceeded_by_begin_rule(self):
        # our begin rule respects source_available, so loads stay bounded
        for t in self.transfers.active():
            limit = self.transfers.limit_for(t.source)
            if limit is not None:
                assert self.transfers.source_load(t.source) <= limit

    @invariant()
    def no_duplicate_inbound(self):
        pairs = [(t.cache_name, t.dest_worker) for t in self.transfers.active()]
        assert len(pairs) == len(set(pairs))


TestTables = TableMachine.TestCase
TestTables.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)
