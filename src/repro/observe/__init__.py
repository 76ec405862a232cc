"""Runtime observability: transaction log, metrics, bench reporting.

This package is the telemetry substrate under both runtimes (paper
§4: every evaluation figure is a view over the manager's transaction
log).  It is deliberately runtime-agnostic — the shared
:class:`~repro.core.control_plane.ControlPlane` emits the same events
and samples the same metrics whether it is driven by the threaded
:class:`~repro.core.manager.Manager` or the discrete-event
:class:`~repro.sim.simmanager.SimManager` — so a real run and a
simulated run of one workflow produce logs with identical schema.

Three layers:

* :mod:`repro.observe.txnlog` — append-only JSONL transaction log with
  a versioned schema; the :class:`~repro.core.events.EventLog`
  analysis becomes a loader over a file on disk.
* :mod:`repro.observe.metrics` — counters, gauges and bounded-reservoir
  histograms sampled in the hot paths, with snapshot dumps.
* :mod:`repro.observe.bench_report` — machine-readable ``BENCH_*.json``
  reports accumulating the performance trajectory.

``repro-status`` (:mod:`repro.observe.cli`) renders a live table from
a transaction log as it is written, or summarizes a finished one.
"""

from typing import TYPE_CHECKING

from repro import _lazy

if TYPE_CHECKING:  # pragma: no cover - static tools see the eager names
    from repro.observe.bench_report import BenchReporter, validate_report
    from repro.observe.metrics import (
        Counter,
        Gauge,
        Histogram,
        MetricsRegistry,
    )
    from repro.observe.txnlog import (
        TXN_SCHEMA_VERSION,
        TransactionLogWriter,
        load_event_log,
        read_transactions,
    )

__all__ = [
    "TXN_SCHEMA_VERSION",
    "TransactionLogWriter",
    "read_transactions",
    "load_event_log",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "BenchReporter",
    "validate_report",
]

#: the module each public name lives in, imported when the name is first
#: read: a worker needs :mod:`~repro.observe.metrics` only, not the
#: transaction log or the bench reporter
_ORIGIN = {
    "TXN_SCHEMA_VERSION": "repro.observe.txnlog",
    "TransactionLogWriter": "repro.observe.txnlog",
    "read_transactions": "repro.observe.txnlog",
    "load_event_log": "repro.observe.txnlog",
    "Counter": "repro.observe.metrics",
    "Gauge": "repro.observe.metrics",
    "Histogram": "repro.observe.metrics",
    "MetricsRegistry": "repro.observe.metrics",
    "BenchReporter": "repro.observe.bench_report",
    "validate_report": "repro.observe.bench_report",
}

__getattr__, __dir__ = _lazy(__name__, _ORIGIN)
