"""What one event costs its emitter, counted in calls — never timed.

Every fact the manager records crosses :meth:`EventLog.emit` on the
reactor (or the simulator's loop), so instrumentation is a layer with a
budget of its own.  With no sink an event is one row appended to the
log's columns, and no object is built; with a
:class:`TransactionLogWriter` attached the sink gets an :class:`Event`
and writes one JSON line.

Calls are counted under ``sys.setprofile`` (a frame entered, a builtin
called), as ``tests/core/test_task_cost_budget.py`` does, so a slow
machine cannot fail these tests.  Run with ``-s`` to see the figures.
"""

import sys

from repro.core.events import EventLog
from repro.observe.txnlog import TransactionLogWriter

EVENTS = 5000

#: (Python, builtin) calls per event emitted.  With no sink: ``emit``
#: itself, and a double appended plus the kind tallied (2 and 2 when each
#: event was a frozen ``Event`` built in ``emit``).  With the txn-log
#: writer: the ``Event`` it is handed, the writer and its JSON encoding
NO_SINK_CALLS = (1, 2)
TXN_SINK_CALLS = (7, 8)


def _calls_per_emit(log: EventLog) -> tuple[float, float]:
    counts = {"call": 0, "c_call": 0}

    def profile(_frame, event, _arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profile)
    try:
        for i in range(EVENTS):
            log.emit(i * 0.5, "task_end", worker="W001", task="t1", category="default")
    finally:
        sys.setprofile(None)
    return counts["call"] / EVENTS, counts["c_call"] / EVENTS


def test_an_event_with_no_sink_is_one_call():
    python, builtin = _calls_per_emit(EventLog())
    print(f"\nemit, no sink: {python:.1f} Python, {builtin:.1f} builtin calls")
    assert python <= NO_SINK_CALLS[0], python
    # the one extra is the profile hook's own ``sys.setprofile(None)``
    assert builtin <= NO_SINK_CALLS[1] + 1 / EVENTS, builtin


def test_an_event_into_the_txn_log_stays_in_budget(tmp_path):
    log = EventLog()
    writer = TransactionLogWriter(str(tmp_path / "txn.jsonl"), runtime="real")
    log.attach(writer)
    try:
        python, builtin = _calls_per_emit(log)
    finally:
        writer.close()
    print(f"\nemit, txn-log sink: {python:.1f} Python, {builtin:.1f} builtin calls")
    assert python <= TXN_SINK_CALLS[0], python
    assert builtin <= TXN_SINK_CALLS[1] + 1 / EVENTS, builtin
    assert len(log) == EVENTS
