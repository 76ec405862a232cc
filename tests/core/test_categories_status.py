"""Tests for category resource learning and simulator cancellation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.categories import CategoryStats, CategoryTracker
from repro.core.resources import Resources
from repro.core.task import Task, TaskState
from repro.sim.cluster import SimCluster
from repro.sim.simmanager import SimManager


# -- category stats ---------------------------------------------------------


def test_stats_record_and_overflow_rate():
    s = CategoryStats()
    s.record(Resources(cores=1, memory=100, disk=10))
    s.record(Resources(cores=2, memory=200, disk=20), exceeded=True)
    assert s.completions == 2
    assert s.overflow_rate == 0.5
    assert s.maximum().memory == 200


def test_suggest_covers_percentile_with_headroom():
    s = CategoryStats()
    for mb in range(1, 101):
        s.record(Resources(cores=1, memory=mb, disk=0))
    suggestion = s.suggest(fraction=0.95, headroom=1.1)
    assert 95 <= suggestion.memory <= 110
    assert suggestion.cores >= 1


def test_suggest_respects_floor():
    s = CategoryStats()
    s.record(Resources(cores=1, memory=1, disk=1))
    floor = Resources(cores=4, memory=500, disk=100)
    suggestion = s.suggest(floor=floor)
    assert suggestion.cores == 4
    assert suggestion.memory == 500
    assert suggestion.disk == 100


def test_tracker_uses_declared_until_enough_samples():
    tracker = CategoryTracker(min_samples=3)
    declared = Resources(cores=2, memory=100)
    assert tracker.first_allocation("blast", declared) == declared
    for _ in range(3):
        tracker.record("blast", Resources(cores=1, memory=900, disk=0))
    learned = tracker.first_allocation("blast", declared)
    assert learned.memory >= 900
    assert learned.cores >= declared.cores  # declared acts as a floor


def test_tracker_retry_allocation_uses_peak():
    tracker = CategoryTracker()
    declared = Resources(cores=1, memory=100)
    # no data: fall back to doubling
    assert tracker.retry_allocation("x", declared).memory == 200
    tracker.record("x", Resources(cores=1, memory=5000, disk=0))
    retry = tracker.retry_allocation("x", declared)
    assert retry.memory >= 5000


def test_tracker_validates_fraction():
    with pytest.raises(ValueError):
        CategoryTracker(fraction=0.0)
    with pytest.raises(ValueError):
        CategoryTracker(fraction=1.5)


def test_tracker_summary_and_categories():
    tracker = CategoryTracker()
    tracker.record("a", Resources(cores=1, memory=10, disk=1))
    tracker.record("b", Resources(cores=2, memory=20, disk=2), exceeded=True)
    assert tracker.categories() == ["a", "b"]
    summary = tracker.summary()
    assert summary["b"]["overflow_rate"] == 1.0
    assert summary["a"]["completions"] == 1


@given(st.lists(st.integers(1, 10_000), min_size=1, max_size=200))
def test_property_suggestion_bounded_by_max_with_headroom(memories):
    s = CategoryStats()
    for m in memories:
        s.record(Resources(cores=1, memory=m, disk=0))
    suggestion = s.suggest(fraction=0.95, headroom=1.1)
    assert suggestion.memory <= max(memories) * 1.1 + 1
    assert suggestion.memory >= 0


def test_resources_explicit_flag():
    t = Task("cmd")
    assert not t.resources_explicit
    t.set_cores(2)
    assert t.resources_explicit
    t2 = Task("cmd").set_resources(Resources(cores=1))
    assert t2.resources_explicit


# -- sim cancellation ---------------------------------------------------------


@pytest.fixture()
def sim_pair():
    c = SimCluster()
    c.add_workers(2, cores=4)
    m = SimManager(c)
    return c, m


def test_sim_cancel_ready_task(sim_pair):
    c, m = sim_pair
    blockers = [
        Task(f"b{i}").set_resources(Resources(cores=4)) for i in range(2)
    ]
    victim = Task("victim")
    for b in blockers:
        m.submit(b, duration=5.0)
    m.submit(victim, duration=5.0)
    assert m.cancel(victim)
    m.run(finalize=False)
    assert victim.state == TaskState.CANCELLED
    assert all(b.state == TaskState.DONE for b in blockers)


def test_sim_cancel_running_task(sim_pair):
    c, m = sim_pair
    long = Task("long")
    short = Task("short")
    m.submit(long, duration=1000.0)
    m.submit(short, duration=1.0)
    m.sim.run(until=1.0)
    assert long.state == TaskState.RUNNING
    assert m.cancel(long)
    stats = m.run(finalize=False)
    assert long.state == TaskState.CANCELLED
    assert short.state == TaskState.DONE
    assert stats.finished < 100  # did not wait for the cancelled task


def test_sim_cancel_terminal_returns_false(sim_pair):
    c, m = sim_pair
    t = Task("x")
    m.submit(t, duration=0.5)
    m.run(finalize=False)
    assert not m.cancel(t)
