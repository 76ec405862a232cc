"""Counters, gauges, histograms and the registry under concurrency."""

import json
import threading

import pytest

from repro.observe.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


def test_counter_accumulates_and_rejects_decrease():
    c = Counter("events")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_tracks_value_and_peak():
    g = Gauge("depth")
    g.inc(3)
    g.dec(2)
    g.set(7)
    g.set(1)
    assert g.value == 1
    assert g.max == 7


def test_histogram_exact_moments():
    h = Histogram("lat")
    for v in (1.0, 2.0, 3.0, 4.0):
        h.observe(v)
    assert h.count == 4
    assert h.sum == 10.0
    assert h.mean == 2.5
    snap = h.snapshot()
    assert snap["min"] == 1.0 and snap["max"] == 4.0


def test_histogram_reservoir_stays_bounded():
    h = Histogram("lat", reservoir_size=64)
    for i in range(10_000):
        h.observe(float(i))
    assert h.count == 10_000
    assert len(h._reservoir) == 64
    # moments stay exact even after the reservoir saturates
    assert h.snapshot()["max"] == 9999.0
    assert h.snapshot()["min"] == 0.0
    # reservoir values are a subset of what was observed
    assert all(0.0 <= v <= 9999.0 for v in h._reservoir)


def test_histogram_percentiles_reasonable():
    h = Histogram("lat", reservoir_size=2048)
    for i in range(1000):
        h.observe(float(i))
    assert abs(h.percentile(50) - 500) < 50
    assert abs(h.percentile(90) - 900) < 50
    with pytest.raises(ValueError):
        h.percentile(101)


def test_histogram_sampling_is_deterministic_per_name():
    def fill(name):
        h = Histogram(name, reservoir_size=16)
        for i in range(500):
            h.observe(float(i))
        return list(h._reservoir)

    assert fill("same.name") == fill("same.name")


def test_concurrent_counter_increments_are_lossless():
    c = Counter("hits")
    n_threads, per_thread = 8, 5000

    def work():
        for _ in range(per_thread):
            c.inc()

    threads = [threading.Thread(target=work) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.value == n_threads * per_thread


def test_concurrent_histogram_observations_are_lossless():
    h = Histogram("lat", reservoir_size=128)
    n_threads, per_thread = 8, 2000

    def work():
        for i in range(per_thread):
            h.observe(float(i))

    threads = [threading.Thread(target=work) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert h.count == n_threads * per_thread
    assert len(h._reservoir) == 128


def test_registry_get_or_create_and_kind_conflict():
    reg = MetricsRegistry()
    assert reg.counter("a") is reg.counter("a")
    reg.gauge("b")
    with pytest.raises(TypeError):
        reg.counter("b")
    pulled = reg.pulled("c", lambda: (1, 2))
    assert reg.pulled("c", lambda: (0, 0)) is pulled  # keeps its reader
    with pytest.raises(TypeError):
        reg.gauge("c")
    assert reg.names() == ["a", "b", "c"]


def test_registry_snapshot_and_dump(tmp_path):
    reg = MetricsRegistry()
    reg.counter("hits").inc(3)
    reg.gauge("depth").set(2)
    reg.histogram("lat").observe(0.5)
    level = [0, 0]  # (value, peak) as their owner keeps them
    reg.pulled("queued", lambda: tuple(level))
    level[:] = [4, 9]
    path = str(tmp_path / "metrics.json")
    reg.dump(path)
    payload = json.load(open(path))
    assert payload["metrics"]["hits"] == {"type": "counter", "value": 3}
    assert payload["metrics"]["depth"]["value"] == 2
    # read when the snapshot is taken, not when registered
    assert payload["metrics"]["queued"] == {"type": "gauge", "value": 4, "max": 9}
    assert payload["metrics"]["lat"]["count"] == 1
    assert "dumped_at" in payload

