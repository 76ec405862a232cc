"""Tests for garbage collection, eviction planning, and the event log."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.events import (
    EventLog,
    completion_series,
    makespan,
    task_rows,
    worker_busy,
)
from repro.core.files import BufferFile, CacheLevel, FileRegistry
from repro.core.gc import (
    CacheEntryInfo,
    collect_task_inputs,
    collect_workflow,
    plan_eviction,
)
from repro.core.replica_table import ReplicaTable


def reg_with(levels: dict[str, CacheLevel]) -> FileRegistry:
    reg = FileRegistry()
    for name, level in levels.items():
        f = BufferFile(name.encode(), cache=level)
        f.cache_name = name
        reg.register(f)
    return reg


# -- workflow-end collection --------------------------------------------


def test_collect_workflow_spares_worker_level():
    reg = reg_with(
        {
            "t": CacheLevel.TASK,
            "wf": CacheLevel.WORKFLOW,
            "wk": CacheLevel.WORKER,
        }
    )
    rt = ReplicaTable()
    for name in ["t", "wf", "wk"]:
        rt.add_replica(name, "w1")
        rt.add_replica(name, "w2")
    deletions = collect_workflow(reg, rt)
    assert deletions == {"w1": ["t", "wf"], "w2": ["t", "wf"]}


def test_collect_workflow_lists_each_worker_in_declaration_order():
    # declared out of name order, held out of declaration order
    reg = reg_with(
        {
            "z": CacheLevel.WORKFLOW,
            "m": CacheLevel.TASK,
            "keep": CacheLevel.WORKER,
            "a": CacheLevel.WORKFLOW,
        }
    )
    rt = ReplicaTable()
    for name, holders in (("a", "w1 w2"), ("keep", "w1"), ("m", "w2"), ("z", "w2 w1")):
        for w in holders.split():
            rt.add_replica(name, w)
    assert collect_workflow(reg, rt) == {"w2": ["z", "m", "a"], "w1": ["z", "a"]}


def test_collect_workflow_empty_when_nothing_cached():
    assert collect_workflow(reg_with({"x": CacheLevel.TASK}), ReplicaTable()) == {}


def test_collect_task_inputs_only_unreferenced_task_level():
    reg = reg_with({"a": CacheLevel.TASK, "b": CacheLevel.TASK, "c": CacheLevel.WORKFLOW})
    out = collect_task_inputs(["a", "b", "c", "unknown"], reg, {"b": 2})
    assert out == {"a"}


# -- eviction ---------------------------------------------------------------


def entry(name, size=100, level=CacheLevel.WORKER, last_used=0.0):
    return CacheEntryInfo(cache_name=name, size=size, level=level, last_used=last_used)


def test_eviction_prefers_short_lifetimes_then_lru():
    entries = [
        entry("worker_old", level=CacheLevel.WORKER, last_used=0),
        entry("wf_new", level=CacheLevel.WORKFLOW, last_used=100),
        entry("wf_old", level=CacheLevel.WORKFLOW, last_used=1),
    ]
    victims = plan_eviction(entries, needed_bytes=150)
    assert victims == ["wf_old", "wf_new"]


def test_eviction_never_touches_pinned():
    entries = [entry("pinned", size=1000), entry("free", size=1000)]
    assert plan_eviction(entries, 500, pinned={"pinned"}) == ["free"]


def test_eviction_zero_needed_is_empty():
    assert plan_eviction([entry("a")], 0) == []


def test_eviction_may_underfree():
    assert plan_eviction([entry("a", size=10)], 10**6) == ["a"]


@given(
    st.lists(
        st.tuples(st.integers(1, 1000), st.sampled_from(list(CacheLevel))),
        max_size=20,
    ),
    st.integers(0, 5000),
)
def test_property_eviction_frees_enough_when_possible(sizes_levels, needed):
    entries = [
        entry(f"e{i}", size=s, level=lvl, last_used=i)
        for i, (s, lvl) in enumerate(sizes_levels)
    ]
    victims = plan_eviction(entries, needed)
    freed = sum(e.size for e in entries if e.cache_name in victims)
    total = sum(e.size for e in entries)
    if needed <= total:
        assert freed >= needed or freed == total
    # never evicts more than one extra entry beyond what was needed
    if victims:
        without_last = freed - next(
            e.size for e in entries if e.cache_name == victims[-1]
        )
        assert without_last < needed


# -- event log ----------------------------------------------------------------


def test_event_log_rejects_unknown_kind():
    log = EventLog()
    with pytest.raises(ValueError):
        log.emit(0.0, "bogus")


def test_task_rows_extraction_and_sorting():
    log = EventLog()
    log.emit(1.0, "task_start", worker="w1", task="t2", category="blast")
    log.emit(0.5, "task_start", worker="w2", task="t1", category="blast")
    log.emit(2.0, "task_end", task="t2", worker="w1")
    log.emit(3.0, "task_end", task="t1", worker="w2")
    rows = task_rows(log)
    assert [r.task_id for r in rows] == ["t1", "t2"]
    assert rows[0].start == 0.5 and rows[0].end == 3.0
    assert rows[1].worker == "w1"


def test_task_rows_drops_unfinished():
    log = EventLog()
    log.emit(1.0, "task_start", worker="w1", task="t1")
    assert task_rows(log) == []


def test_worker_busy_union_and_idle():
    log = EventLog()
    log.emit(0.0, "worker_join", worker="w1")
    log.emit(1.0, "transfer_start", worker="w1", file="f")
    log.emit(3.0, "transfer_end", worker="w1", file="f")
    log.emit(2.0, "task_start", worker="w1", task="t1")
    log.emit(6.0, "task_end", worker="w1", task="t1")
    log.emit(10.0, "worker_leave", worker="w1")
    busy = worker_busy(log, horizon=10.0)["w1"]
    assert busy.connected == 10.0
    assert busy.executing == 4.0
    assert busy.transferring == 2.0
    # union of [1,3] and [2,6] is [1,6] => 5 busy, 5 idle
    assert busy.idle == pytest.approx(5.0)


def test_worker_busy_closes_open_intervals_at_horizon():
    log = EventLog()
    log.emit(0.0, "worker_join", worker="w1")
    log.emit(4.0, "task_start", worker="w1", task="t1")
    busy = worker_busy(log, horizon=10.0)["w1"]
    assert busy.executing == 6.0
    assert busy.connected == 10.0


def test_worker_busy_merges_overlapping_same_kind():
    log = EventLog()
    log.emit(0.0, "worker_join", worker="w1")
    log.emit(0.0, "task_start", worker="w1", task="a")
    log.emit(1.0, "task_start", worker="w1", task="b")
    log.emit(2.0, "task_end", worker="w1", task="a")
    log.emit(5.0, "task_end", worker="w1", task="b")
    busy = worker_busy(log, horizon=5.0)["w1"]
    assert busy.executing == 5.0  # union, not sum


def test_completion_series_monotone():
    log = EventLog()
    for i in range(10):
        log.emit(float(i), "task_start", worker="w", task=f"t{i}")
        log.emit(float(i) + 0.5, "task_end", worker="w", task=f"t{i}", category="c")
    series = completion_series(log, points=10)
    counts = [c for _, c in series]
    assert counts == sorted(counts)
    assert counts[-1] == 10
    assert completion_series(log, points=5, category="missing") == []


def test_makespan():
    log = EventLog()
    assert makespan(log) == 0.0
    log.emit(3.0, "task_end", task="t1", worker="w")
    log.emit(7.0, "task_end", task="t2", worker="w")
    assert makespan(log) == 7.0


@given(
    st.lists(
        st.tuples(
            st.sampled_from(list(CacheLevel)),
            st.sets(st.sampled_from(["w1", "w2", "w3"]), min_size=1, max_size=3),
        ),
        max_size=12,
    )
)
def test_property_collect_workflow_exact(level_holders):
    reg = FileRegistry()
    rt = ReplicaTable()
    names_by_level = {}
    for i, (level, holders) in enumerate(level_holders):
        f = BufferFile(f"{i}".encode(), cache=level)
        f.cache_name = f"n{i}"
        reg.register(f)
        names_by_level[f.cache_name] = level
        for w in holders:
            rt.add_replica(f.cache_name, w)
    deletions = collect_workflow(reg, rt)
    deleted = {n for names in deletions.values() for n in names}
    for name, level in names_by_level.items():
        if rt.locate(name):
            if level == CacheLevel.WORKER:
                assert name not in deleted
            else:
                assert name in deleted
