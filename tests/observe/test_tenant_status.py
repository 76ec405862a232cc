"""Service-mode observability: client counters and the tenant table."""

from repro.core.events import Event
from repro.observe.cli import (
    format_log_status,
    format_tenant_table,
    replay_status,
)


def _service_events():
    return [
        Event(0.0, "worker_join", worker="w0"),
        Event(0.1, "client_attach", worker="C001", category="alice"),
        Event(0.2, "client_attach", worker="C002", category="bob"),
        Event(0.3, "client_rejected", worker="C003", category="auth"),
        Event(0.4, "cache_shared", file="buffer-md5-abc", size=512, category="bob"),
        Event(0.5, "client_detach", worker="C002", category="bob"),
    ]


def test_replay_counts_client_activity():
    st = replay_status(_service_events(), runtime="real")
    assert st.counts["client_attach"] == 2
    assert st.counts["client_rejected"] == 1
    assert st.counts["cache_shared"] == 1


def test_format_mentions_client_line_only_in_service_mode():
    text = format_log_status(replay_status(_service_events()))
    assert "clients: 2 attached, 1 rejected; 1 cross-tenant cache hits" in text
    # a plain workflow log keeps its old shape: no client line at all
    plain = format_log_status(
        replay_status([Event(0.0, "worker_join", worker="w0")])
    )
    assert "clients:" not in plain


def _metrics(**overrides):
    base = {
        "tenant.alice.tasks_queued": {"type": "gauge", "value": 3.0},
        "tenant.alice.tasks_running": {"type": "gauge", "value": 1.0},
        "tenant.alice.tasks_done": {"type": "counter", "value": 7.0},
        "tenant.alice.tasks_failed": {"type": "counter", "value": 0.0},
        "tenant.alice.bytes_declared": {"type": "gauge", "value": 2_000_000},
        "tenant.alice.cache_hits": {"type": "counter", "value": 2.0},
        "tenant.alice.quota_headroom": {"type": "gauge", "value": 5.0},
        "tenant.bob.tasks_queued": {"type": "gauge", "value": 0.0},
        "tenant.bob.quota_headroom": {"type": "gauge", "value": -1.0},
        # non-tenant instruments must be ignored by the table
        "sched.pump_seconds": {"type": "histogram", "count": 4},
    }
    base.update(overrides)
    return base


def test_tenant_table_rows_and_headroom():
    table = format_tenant_table(_metrics())
    lines = table.splitlines()
    assert lines[0] == "tenants:"
    assert "alice" in table and "bob" in table
    alice = next(line for line in lines if "alice" in line)
    assert "3" in alice and "7" in alice and "2.0MB" in alice
    bob = next(line for line in lines if "bob" in line)
    assert "∞" in bob  # unlimited quota renders as infinity
    assert "sched" not in table


def test_tenant_table_empty_without_tenant_metrics():
    assert format_tenant_table({"sched.pump_seconds": {"count": 1}}) == ""
