"""Runtime metrics: counters, gauges and bounded-reservoir histograms.

The registry is sampled in the hot paths of the control plane and the
worker (placement pump latency, scheduler index pressure —
``sched.pump_us`` / ``sched.candidates_scored`` — transfer queue
depth, per-source concurrency, cache hits/misses, eviction bytes,
sandbox setup time, library invoke latency).  Everything here is therefore cheap and
thread-safe: one lock per instrument, O(1) per observation, and a
histogram never holds more than ``reservoir_size`` samples no matter
how many it has seen.

A gauge that mirrors a count some table keeps anyway (queue depth,
transfers in flight, a tenant's running tasks) is a
:class:`PulledGauge`: the table records the count's high-water mark
where the count rises, and the gauge reads value and peak from it when
a snapshot is taken, so the table's hot path writes no instrument.
Its counter-typed twin, :class:`PulledCounters`, does the same for
counts an owner keeps as a family: one reader yields a dict, and the
snapshot shows one ``<prefix><key>`` counter per entry.  The control
plane registers one over its event log's per-kind tally
(``events.<kind>``), so an event is counted once, by the log, and one
over each tenant account's cache hits and regenerations.

Snapshots are plain dictionaries (JSON-ready); a process that writes
one periodically with :meth:`MetricsRegistry.dump` lets an external
``repro-status`` invocation — or a human with ``cat`` — see a live
view of it.
"""

from __future__ import annotations

import json
import math
import os
import random
import threading
import time
import zlib
from typing import Callable

__all__ = [
    "Counter",
    "Gauge",
    "PulledGauge",
    "PulledCounters",
    "Histogram",
    "MetricsRegistry",
]


class Counter:
    """A monotonically increasing count (events, bytes, retries)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the count."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self._value}


class Gauge:
    """A value that goes up and down (queue depth, open transfers)."""

    __slots__ = ("name", "_value", "_max", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value
            if value > self._max:
                self._max = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount
            if self._value > self._max:
                self._max = self._value

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    @property
    def max(self) -> float:
        """Highest value the gauge ever reached (peak concurrency)."""
        return self._max

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self._value, "max": self._max}


class PulledGauge:
    """A gauge whose value and peak its owner keeps.

    ``read()`` returns ``(value, peak)``; it is called when the gauge is
    read, never when the count changes, so it must only read a few
    fields (it may run on another thread than the owner's).  The owner
    keeps the peak exact by recording it where the count rises.
    """

    __slots__ = ("name", "_read")

    def __init__(self, name: str, read: Callable[[], tuple[float, float]]) -> None:
        self.name = name
        self._read = read

    def snapshot(self) -> dict:
        value, peak = self._read()
        return {"type": "gauge", "value": value, "max": peak}


class PulledCounters:
    """A family of counters whose values their owner keeps.

    ``read()`` returns ``{key: value}`` as one copy (it may run on
    another thread than the owner's, so it must not iterate a dict the
    owner is growing); the snapshot shows each entry as a counter named
    ``<prefix><key>``.  A key the reader does not return has no counter.
    """

    __slots__ = ("name", "_read")

    def __init__(self, name: str, read: Callable[[], dict[str, float]]) -> None:
        self.name = name
        self._read = read

    def snapshot(self) -> dict:
        return {
            self.name + key: {"type": "counter", "value": value}
            for key, value in self._read().items()
        }


class Histogram:
    """Distribution sketch with exact moments and a bounded reservoir.

    ``count``/``sum``/``min``/``max`` are exact over every observation;
    quantiles come from uniform reservoir sampling (Vitter's algorithm
    R) over at most ``reservoir_size`` kept samples, so memory stays
    bounded on hot paths that observe millions of values.  The sampling
    RNG is seeded from the metric name: runs are reproducible without
    touching any global random state.
    """

    __slots__ = (
        "name", "reservoir_size", "_count", "_sum", "_min", "_max",
        "_reservoir", "_rng", "_lock",
    )

    def __init__(self, name: str, reservoir_size: int = 1024) -> None:
        if reservoir_size <= 0:
            raise ValueError("reservoir_size must be positive")
        self.name = name
        self.reservoir_size = reservoir_size
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._reservoir: list[float] = []
        # crc32 (not hash()) so the sampling stream is stable across
        # processes regardless of PYTHONHASHSEED
        self._rng = random.Random(zlib.crc32(name.encode()))
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if len(self._reservoir) < self.reservoir_size:
                self._reservoir.append(value)
            else:
                slot = int(self._rng.random() * self._count)
                if slot < self.reservoir_size:
                    self._reservoir[slot] = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate ``q``-th percentile (0..100) from the reservoir."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be within [0, 100]")
        with self._lock:
            if not self._reservoir:
                return 0.0
            ordered = sorted(self._reservoir)
        idx = min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1))))
        return ordered[idx]

    def snapshot(self) -> dict:
        with self._lock:
            if not self._count:
                return {"type": "histogram", "count": 0}
            ordered = sorted(self._reservoir)

        def pct(q: float) -> float:
            return ordered[min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1))))]

        return {
            "type": "histogram",
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "mean": self._sum / self._count,
            "p50": pct(50),
            "p90": pct(90),
            "p99": pct(99),
        }


class MetricsRegistry:
    """Get-or-create home for a process's instruments.

    Names are dotted paths (``cache.hits``); an instrument registered
    as one kind cannot be re-registered as another.  The registry is
    shared between threads; creation is guarded, and each instrument
    serializes its own updates.
    """

    def __init__(self) -> None:
        self._instruments: dict[
            str, Counter | Gauge | PulledGauge | PulledCounters | Histogram
        ] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind, **kwargs):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = kind(name, **kwargs)
                self._instruments[name] = inst
            elif not isinstance(inst, kind):
                raise TypeError(
                    f"metric {name!r} already registered as {type(inst).__name__}"
                )
            return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def pulled(self, name: str, read: Callable[[], tuple[float, float]]) -> PulledGauge:
        """A gauge read from its owner at snapshot time (see
        :class:`PulledGauge`); a name already registered keeps its reader."""
        return self._get(name, PulledGauge, read=read)

    def pulled_counters(
        self, prefix: str, read: Callable[[], dict[str, float]]
    ) -> PulledCounters:
        """Counters ``<prefix><key>`` read from their owner at snapshot
        time (see :class:`PulledCounters`)."""
        return self._get(prefix, PulledCounters, read=read)

    def histogram(self, name: str, reservoir_size: int = 1024) -> Histogram:
        return self._get(name, Histogram, reservoir_size=reservoir_size)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> dict:
        """All instruments as one JSON-ready dict, keyed by name."""
        with self._lock:
            instruments = dict(self._instruments)
        out = {}
        for name, inst in instruments.items():
            if isinstance(inst, PulledCounters):
                out.update(inst.snapshot())
            else:
                out[name] = inst.snapshot()
        return dict(sorted(out.items()))

    def dump(self, path: str) -> None:
        """Atomically write a snapshot (with a timestamp) to ``path``."""
        payload = {"dumped_at": time.time(), "metrics": self.snapshot()}
        tmp = f"{path}.tmp"
        with open(tmp, "w") as f:
            json.dump(payload, f, indent=1)
        os.replace(tmp, path)
