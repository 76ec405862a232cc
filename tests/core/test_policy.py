"""The manager's configuration is one frozen ``Policy`` object.

The runtimes take it and hand it to the control plane untouched; these
tests hold that shape by *count*, the way the call-path budgets do: a
new knob has to edit a literal here, next to a sentence saying why.
"""

import dataclasses
import inspect
import json

import pytest

from repro.core.control_plane import ControlPlane
from repro.core.journal import ControlPlaneJournal
from repro.core.manager import Manager
from repro.core.policy import Policy
from repro.sim.cluster import SimCluster
from repro.sim.simmanager import SimManager

#: every keyword ``ControlPlane(...)`` accepted before ``Policy`` existed
#: (PR 16).  ``Policy`` gathered 14 of them; it may not grow past this
#: set — a simplification adds no options, and a later feature that
#: needs one must say here which two existing callers disagree on it.
PARENT_CONTROL_PLANE_PARAMETERS = {
    "port", "worker_transfer_limit", "source_transfer_limit", "locality",
    "transfer_retries", "temp_replica_count", "loss_retries", "strict_loss",
    "resource_learning", "metrics", "transfer_backoff_base",
    "requeue_backoff_base", "blocklist_threshold", "rng_seed",
    "default_task_quota", "default_byte_quota", "memo", "memo_opt_out",
    "journal",
}


def _parameters(fn) -> list[str]:
    return [p for p in inspect.signature(fn).parameters if p != "self"]


def test_constructor_budget():
    # 19 / 26 / 18 before PR 17
    assert len(_parameters(ControlPlane.__init__)) <= 5
    assert len(_parameters(Manager.__init__)) <= 15
    assert len(_parameters(SimManager.__init__)) <= 10
    fields = {f.name for f in dataclasses.fields(Policy)}
    assert len(fields) == 14
    assert fields <= PARENT_CONTROL_PLANE_PARAMETERS
    # the runtimes forward the object, not its fields, and swallow nothing
    for ctor in (ControlPlane.__init__, Manager.__init__, SimManager.__init__):
        names = _parameters(ctor)
        assert "policy" in names and not fields & set(names)
        assert not any(
            p.kind in (p.VAR_KEYWORD, p.VAR_POSITIONAL)
            for p in inspect.signature(ctor).parameters.values()
        )


def test_policy_is_frozen_and_json_ready():
    p = Policy(memo_opt_out=["bob", "alice"], temp_replica_count=2)
    assert p.memo_opt_out == frozenset({"alice", "bob"})
    assert Policy(memo_opt_out=None).memo_opt_out == frozenset()
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.locality = False
    d = json.loads(json.dumps(p.asdict()))
    assert d["memo_opt_out"] == ["alice", "bob"] and d["temp_replica_count"] == 2
    assert set(d) == {f.name for f in dataclasses.fields(Policy)}


def test_runtimes_hand_the_policy_through_untouched():
    policy = Policy(locality=False, source_transfer_limit=7)
    with Manager(policy=policy) as m:
        assert m.control.policy is policy
        assert m.control.scheduler.locality is False
        assert m.control.transfers.source_limit == 7
    # the simulator derives the two loss fields from max_task_retries
    # and nothing else
    sim = SimManager(SimCluster(), policy, max_task_retries=4)
    assert sim.control.policy == dataclasses.replace(
        policy, loss_retries=4, strict_loss=True
    )


def test_policy_is_journaled_with_the_meta_record(tmp_path):
    jdir = str(tmp_path / "journal")
    # a journal as the parent wrote it: a meta record without a policy
    old = ControlPlaneJournal(jdir)
    old.record_meta(port=4711, project="p")
    old.record_session("tok", "C001", "alice")
    old.journal.close()
    policy = Policy(default_task_quota=5, memo_opt_out=["bob"])
    with Manager(journal_dir=jdir, policy=policy, project_name="p") as m:
        assert m.recovered and "tok" in m.service.sessions  # it replayed
        assert m.journal.meta["policy"] == policy.asdict()
    back = ControlPlaneJournal(jdir)
    assert back.meta["project"] == "p"
    assert back.meta["policy"]["default_task_quota"] == 5
    assert back.meta["policy"]["memo_opt_out"] == ["bob"]
    back.journal.close()
