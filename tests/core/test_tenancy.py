"""Per-tenant accounting, quotas, and the cross-tenant cache-hit path.

Drives the ControlPlane against the scripted FakePort (same harness as
test_control_plane) and observes the TenantAccount bookkeeping plus the
``tenant.<name>.*`` gauges the service's status table is built from.
"""

import pytest

from repro.core.control_plane import ManagerError
from repro.core.files import TempFile
from repro.core.task import Task

from tests.core.test_control_plane import add_worker, finish, make_control


def submit_for(control, tenant, name="job", inputs=()):
    t = Task(f"run {name}")
    t.set_tenant(tenant)
    for sandbox, f in inputs:
        t.add_input(f, sandbox)
    control.submit(t)
    return t


def gauge(control, tenant, field):
    # counters and gauges share the .value accessor; go through the
    # snapshot so the instrument kind does not matter
    return control.metrics.snapshot()[f"tenant.{tenant}.{field}"]["value"]


def test_accounts_track_submit_run_finish():
    port, control = make_control()
    add_worker(port, control, "wA")
    t = submit_for(control, "alice")
    acct = control.tenant_account("alice")
    assert acct.submitted == 1 and acct.outstanding == 1
    assert gauge(control, "alice", "tasks_queued") == 1

    control.pump()
    assert acct.running == 1
    assert gauge(control, "alice", "tasks_running") == 1
    assert gauge(control, "alice", "tasks_queued") == 0

    finish(port, control, t)
    assert acct.done == 1 and acct.outstanding == 0 and acct.running == 0
    assert gauge(control, "alice", "tasks_done") == 1


def test_failed_task_counts_against_failed_not_done():
    port, control = make_control(loss_retries=0)
    add_worker(port, control, "wA")
    t = submit_for(control, "alice")
    t.max_retries = 0
    control.pump()
    finish(port, control, t, exit_code=1, register_outputs=False)
    acct = control.tenant_account("alice")
    assert acct.failed == 1 and acct.done == 0 and acct.outstanding == 0
    assert gauge(control, "alice", "tasks_failed") == 1


def test_task_quota_blocks_after_headroom_exhausted():
    port, control = make_control()
    control.set_tenant_quota("alice", task_quota=2)
    submit_for(control, "alice")
    submit_for(control, "alice")
    with pytest.raises(ManagerError, match="quota"):
        submit_for(control, "alice")
    # completing a task restores headroom
    add_worker(port, control, "wA")
    control.pump()
    running = list(control._running.values())
    finish(port, control, running[0])
    submit_for(control, "alice")


def test_byte_quota_blocks_declares_but_not_cache_hits():
    port, control = make_control()
    control.set_tenant_quota("alice", byte_quota=100)
    assert control.tenant_charge_bytes("alice", 80) is None
    reason = control.tenant_charge_bytes("alice", 30)
    assert reason is not None and "quota" in reason
    acct = control.tenant_account("alice")
    assert acct.bytes_declared == 80
    # a cross-tenant cache hit costs zero bytes and bumps the hit counter
    control.tenant_cache_hit("alice", "buffer-md5-abc", 1000)
    assert acct.bytes_declared == 80
    assert acct.cache_hits == 1
    assert gauge(control, "alice", "cache_hits") == 1


def test_cache_hit_emits_cache_shared_event():
    port, control = make_control()
    seen = []
    control.log.attach(lambda ev: seen.append(ev))
    control.tenant_cache_hit("bob", "buffer-md5-abc", 42)
    kinds = [ev.kind for ev in seen]
    assert "cache_shared" in kinds
    ev = next(ev for ev in seen if ev.kind == "cache_shared")
    assert ev.file == "buffer-md5-abc" and ev.size == 42 and ev.category == "bob"


def test_quota_headroom_gauge_reflects_limits():
    port, control = make_control()
    control.tenant_account("alice")
    assert gauge(control, "alice", "quota_headroom") == -1  # unlimited
    control.set_tenant_quota("alice", task_quota=5)
    assert gauge(control, "alice", "quota_headroom") == 5
    submit_for(control, "alice")
    assert gauge(control, "alice", "quota_headroom") == 4
    control.set_tenant_quota("alice", task_quota=None)
    assert gauge(control, "alice", "quota_headroom") == -1


def test_tenant_namespace_tracks_names():
    port, control = make_control()
    acct = control.tenant_account("alice")
    control.tenant_add_name("alice", "buffer-md5-abc")
    control.tenant_add_name("alice", "buffer-md5-abc")
    assert acct.names == {"buffer-md5-abc"}


def test_default_quotas_apply_to_new_tenants():
    port, control = make_control(default_task_quota=1, default_byte_quota=10)
    submit_for(control, "carol")
    with pytest.raises(ManagerError, match="quota"):
        submit_for(control, "carol")
    assert control.tenant_charge_bytes("carol", 11) is not None


def test_regeneration_keeps_tenant_done_ledger_consistent():
    # the requeue path must mirror the global done_count on the tenant
    # ledger: un-count the rescinded completion, count it again exactly
    # once on re-delivery (regression: acct.done and the tasks_done
    # counter drifted by one per regeneration)
    port, control = make_control()
    add_worker(port, control, "wA")
    add_worker(port, control, "wB")
    temp = TempFile()
    temp.cache_name = "mid"
    control.declare(temp)
    producer = Task("make").add_output(temp, "out")
    producer.set_tenant("alice")
    control.submit(producer)
    control.pump()
    finish(port, control, producer)
    acct = control.tenant_account("alice")
    assert acct.done == 1 == control.done_count
    assert gauge(control, "alice", "tasks_done") == 1

    consumer = Task("use").add_input(temp, "mid")
    consumer.set_tenant("alice")
    control.submit(consumer)
    control.pump()
    # lose the only replica: the producer is resurrected
    lost = consumer.worker_id
    control.worker_left(lost)
    assert acct.done == 0 == control.done_count
    assert acct.regens == 1 and acct.outstanding == 2
    assert gauge(control, "alice", "regenerations") == 1

    control.pump()
    finish(port, control, producer)
    # re-delivery restores the ledger without double counting
    assert acct.done == 1 == control.done_count
    assert gauge(control, "alice", "tasks_done") == 1


def test_worker_loss_returns_task_to_queued_accounting():
    port, control = make_control()
    add_worker(port, control, "wA")
    t = submit_for(control, "alice")
    control.pump()
    acct = control.tenant_account("alice")
    assert acct.running == 1
    control.worker_left("wA")
    # task is requeued: outstanding again, no longer running
    assert acct.running == 0 and acct.outstanding == 1
    assert gauge(control, "alice", "tasks_queued") == 1
