"""Machine-readable benchmark reports: the ``BENCH_*.json`` trajectory.

Each benchmark writes one ``BENCH_<name>.json`` capturing its headline
numbers — makespan, task/transfer counts, cache hit rate, peak
transfer concurrency, wall time — so performance accumulates as a
comparable series across commits instead of living in printed tables.
The schema is versioned and :func:`validate_report` is what CI runs
against the artifacts it uploads.

Usage (the benchmark suite's ``bench_report`` fixture does this)::

    reporter = BenchReporter("fig10_minitasks")
    reporter.from_stats(stats)           # a SimRunStats
    reporter.record("speedup", 2.1)      # any extra scalar series
    path = reporter.write()              # BENCH_fig10_minitasks.json

Validation from the command line::

    python -m repro.observe.bench_report BENCH_fig10_minitasks.json
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from typing import Optional

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchReporter",
    "default_bench_dir",
    "validate_report",
    "main",
]

#: bump when the report layout changes incompatibly
BENCH_SCHEMA_VERSION = 1

#: environment override for where reports land
BENCH_DIR_ENV = "REPRO_BENCH_DIR"


def default_bench_dir() -> str:
    """Where reports go: ``$REPRO_BENCH_DIR`` or the repository root."""
    env = os.environ.get(BENCH_DIR_ENV)
    if env:
        return env
    # src/repro/observe/bench_report.py -> repository root
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.dirname(os.path.dirname(os.path.dirname(here)))


class BenchReporter:
    """Accumulates one benchmark's metrics and writes its report."""

    def __init__(self, name: str, out_dir: Optional[str] = None) -> None:
        if not name or any(c in name for c in "/\\ "):
            raise ValueError(f"invalid benchmark name {name!r}")
        self.name = name
        self.out_dir = out_dir if out_dir is not None else default_bench_dir()
        self.metrics: dict[str, float | int] = {}
        self._started = time.perf_counter()

    # -- recording -----------------------------------------------------

    def record(self, key: str, value: "float | int") -> None:
        """Record one scalar metric (non-finite values are rejected)."""
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"metric {key!r} must be numeric, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"metric {key!r} must be finite, got {value!r}")
        self.metrics[key] = value

    def from_stats(self, stats, prefix: str = "") -> None:
        """Record the standard series from a ``SimRunStats``-like object."""
        p = f"{prefix}_" if prefix else ""
        self.record(f"{p}makespan_s", float(stats.makespan))
        self.record(f"{p}tasks_done", int(stats.tasks_done))
        for kind, count in sorted(stats.transfer_counts.items()):
            self.record(f"{p}transfers_{kind}", int(count))
        for kind, nbytes in sorted(stats.bytes_by_source.items()):
            self.record(f"{p}bytes_{kind}", float(nbytes))
        evictions = getattr(stats, "evictions", None)
        if evictions is not None:
            self.record(f"{p}evictions", int(evictions))
        log = getattr(stats, "log", None)
        if log is not None:
            from repro.core.events import peak_transfer_concurrency

            peaks = peak_transfer_concurrency(log)
            governed = [v for k, v in peaks.items() if k != "@retrieve"]
            if governed:
                self.record(f"{p}peak_transfer_concurrency", max(governed))

    # -- output --------------------------------------------------------

    @property
    def path(self) -> str:
        return os.path.join(self.out_dir, f"BENCH_{self.name}.json")

    def write(self) -> str:
        """Write the report atomically; returns its path."""
        payload = {
            "schema": BENCH_SCHEMA_VERSION,
            "name": self.name,
            "created_unix": time.time(),
            "wall_time_s": time.perf_counter() - self._started,
            "metrics": dict(sorted(self.metrics.items())),
        }
        os.makedirs(self.out_dir, exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(payload, f, indent=1, sort_keys=True)
            f.write("\n")
        os.replace(tmp, self.path)
        return self.path


def validate_report(path: str) -> dict:
    """Validate one ``BENCH_*.json``; returns the payload or raises.

    Checks the schema version, the name/filename agreement, and that
    every metric is a finite number — the contract the CI smoke job
    enforces on uploaded artifacts.
    """
    with open(path) as f:
        payload = json.load(f)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: report must be a JSON object")
    if payload.get("schema") != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported schema {payload.get('schema')!r} "
            f"(expected {BENCH_SCHEMA_VERSION})"
        )
    name = payload.get("name")
    expected = os.path.basename(path)
    if not name or expected != f"BENCH_{name}.json":
        raise ValueError(f"{path}: name {name!r} does not match filename")
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        raise ValueError(f"{path}: report has no metrics")
    for key, value in metrics.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{path}: metric {key!r} is not numeric")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{path}: metric {key!r} is not finite")
    wall = payload.get("wall_time_s")
    if not isinstance(wall, (int, float)) or wall < 0:
        raise ValueError(f"{path}: missing or negative wall_time_s")
    return payload


def main(argv: Optional[list[str]] = None) -> int:
    """CLI validator: ``python -m repro.observe.bench_report FILE...``."""
    args = sys.argv[1:] if argv is None else argv
    if not args:
        print("usage: python -m repro.observe.bench_report BENCH_*.json", file=sys.stderr)
        return 2
    failures = 0
    for path in args:
        try:
            payload = validate_report(path)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"INVALID {path}: {exc}", file=sys.stderr)
            failures += 1
            continue
        keys = len(payload["metrics"])
        print(f"ok {path}: {keys} metrics, wall {payload['wall_time_s']:.2f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
