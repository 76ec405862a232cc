"""Tests for the File Replica Table and Current Transfer Table."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.replica_table import ReplicaTable
from repro.core.transfer_table import MANAGER_SOURCE, TransferTable


# -- replica table ---------------------------------------------------------


def test_add_locate_remove():
    rt = ReplicaTable()
    rt.add_replica("f1", "w1", size=100)
    rt.add_replica("f1", "w2")
    assert rt.locate("f1") == {"w1", "w2"}
    assert rt.replica_count("f1") == 2
    assert rt.size_of("f1") == 100
    rt.remove_replica("f1", "w1")
    assert rt.locate("f1") == {"w2"}
    rt.remove_replica("f1", "w2")
    assert rt.locate("f1") == set()
    assert rt.total_names() == 0


def test_add_idempotent():
    rt = ReplicaTable()
    rt.add_replica("f1", "w1", size=10)
    rt.add_replica("f1", "w1", size=10)
    assert rt.replica_count("f1") == 1
    assert rt.total_replicas() == 1


def test_size_mismatch_rejected():
    rt = ReplicaTable()
    rt.add_replica("f1", "w1", size=10)
    with pytest.raises(ValueError):
        rt.add_replica("f1", "w2", size=20)


def test_remove_worker_drops_all_replicas():
    rt = ReplicaTable()
    rt.add_replica("f1", "w1")
    rt.add_replica("f2", "w1")
    rt.add_replica("f2", "w2")
    dropped = rt.remove_worker("w1")
    assert dropped == {"f1", "f2"}
    assert rt.locate("f1") == set()
    assert rt.locate("f2") == {"w2"}
    assert rt.holdings("w1") == set()


def test_forget_name():
    rt = ReplicaTable()
    rt.add_replica("f1", "w1", size=5)
    rt.add_replica("f1", "w2")
    assert rt.forget_name("f1") == {"w1", "w2"}
    assert rt.size_of("f1") == 0
    assert rt.holdings("w1") == set()


def test_locality_scores():
    rt = ReplicaTable()
    rt.add_replica("big", "w1", size=1000)
    rt.add_replica("small", "w1", size=10)
    rt.add_replica("small", "w2", size=10)
    names = ["big", "small", "absent"]
    assert rt.cached_bytes_at("w1", names) == 1010
    assert rt.cached_bytes_at("w2", names) == 10


def test_locate_returns_copy():
    rt = ReplicaTable()
    rt.add_replica("f1", "w1")
    rt.locate("f1").add("w9")
    assert rt.locate("f1") == {"w1"}


@given(
    st.lists(
        st.tuples(st.sampled_from("abcde"), st.sampled_from("xyz")),
        max_size=30,
    )
)
def test_property_replica_bidirectional_consistency(pairs):
    rt = ReplicaTable()
    for name, worker in pairs:
        rt.add_replica(name, worker)
    # every forward edge has its reverse edge
    for name, worker in pairs:
        assert worker in rt.locate(name)
        assert name in rt.holdings(worker)
    assert rt.total_replicas() == sum(len(rt.locate(n)) for n in rt.names())


# -- transfer table --------------------------------------------------------


def test_transfer_lifecycle():
    tt = TransferTable(worker_limit=2)
    t = tt.begin("f1", "w1", "w2", size=100, now=5.0)
    assert tt.source_load("w1") == 1
    assert tt.in_flight("f1", "w2")
    assert tt.get(t.transfer_id).size == 100
    done = tt.complete(t.transfer_id)
    assert done.cache_name == "f1"
    assert tt.source_load("w1") == 0
    assert not tt.in_flight("f1", "w2")
    assert len(tt) == 0


def test_duplicate_inbound_rejected():
    tt = TransferTable()
    tt.begin("f1", "w1", "w2", size=1)
    with pytest.raises(RuntimeError):
        tt.begin("f1", "w3", "w2", size=1)


def test_worker_limit_enforced_via_availability():
    tt = TransferTable(worker_limit=2, source_limit=1)
    tt.begin("f1", "w1", "w2", size=1)
    assert tt.source_available("w1")
    tt.begin("f2", "w1", "w3", size=1)
    assert not tt.source_available("w1")
    # manager/url sources use source_limit
    tt.begin("f3", MANAGER_SOURCE, "w4", size=1)
    assert not tt.source_available(MANAGER_SOURCE)
    assert tt.limit_for("url:host") == 1


def test_none_limit_means_unlimited():
    tt = TransferTable(worker_limit=None)
    for i in range(50):
        tt.begin(f"f{i}", "w1", f"d{i}", size=1)
    assert tt.source_available("w1")


def test_cancel_for_worker():
    tt = TransferTable()
    tt.begin("f1", "w1", "w2", size=1)
    tt.begin("f2", "w2", "w3", size=1)
    tt.begin("f3", "w4", "w5", size=1)
    dropped = tt.cancel_for_worker("w2")
    assert {t.cache_name for t in dropped} == {"f1", "f2"}
    assert len(tt) == 1
    assert tt.source_load("w1") == 0


def test_complete_unknown_raises():
    tt = TransferTable()
    with pytest.raises(KeyError):
        tt.complete("nope")


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=40))
def test_property_source_load_matches_active(transfer_sources):
    tt = TransferTable(worker_limit=None)
    ids = []
    for i, src in enumerate(transfer_sources):
        ids.append(tt.begin(f"f{i}", f"w{src}", f"dest{i}", size=1).transfer_id)
    # complete every other transfer
    for tid in ids[::2]:
        tt.complete(tid)
    active = tt.active()
    for src in set(f"w{s}" for s in transfer_sources):
        assert tt.source_load(src) == sum(1 for t in active if t.source == src)
