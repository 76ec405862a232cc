"""End-to-end service mode: concurrent tenants over the client protocol.

One real Manager, real worker subprocesses, and :class:`ServiceClient`
sessions attached over the same reactor socket the workers use.  Pins
the acceptance behaviors: cross-tenant content sharing with zero
re-transfer, clean protocol-level rejects (auth, quota, unknown kind),
detach/reattach with buffered notice replay, and loopback equivalence
with the standalone in-process API.
"""

import os
import signal
import threading
import time

import pytest

from repro.core.task import Task, TaskState
from repro.protocol.connection import Connection
from repro.protocol.messages import M
from repro.service.client import ClientError, ServiceClient

from tests.integration.conftest import Cluster
from tests.reactor_owner import on_reactor

SHARED = b"shared input content for both tenants\n"


def transfer_count(manager, cache_name):
    return sum(1 for e in manager.log.events("transfer_start") if e.file == cache_name)


@pytest.fixture()
def service_cluster(tmp_path):
    c = Cluster(tmp_path, n_workers=1)
    yield c
    c.stop()


def client_for(cluster, tenant, **kw):
    m = cluster.manager
    return ServiceClient(m.host, m.port, tenant, **kw)


def test_two_tenants_share_content_cache(service_cluster):
    mgr = service_cluster.manager

    with client_for(service_cluster, "alice") as a:
        declared = a.declare_buffer(SHARED)
        assert declared["cache_hit"] is False
        name = declared["cache_name"]
        accepted = a.submit(
            "cat shared.txt > out.txt",
            inputs=[("shared.txt", name)],
            outputs=["out.txt"],
        )
        results = a.run_until_done(timeout=60)
        assert [r["exit_code"] for r in results] == [0]
        a_out = a.fetch(accepted["outputs"]["out.txt"], timeout=60)
        assert a_out == SHARED

    transfers_before = transfer_count(mgr, name)

    with client_for(service_cluster, "bob") as b:
        redeclared = b.declare_buffer(SHARED)
        # content-identical declaration resolves to the same cache name
        # and is a cache hit: no bytes accepted, no transfer scheduled
        assert redeclared["cache_name"] == name
        assert redeclared["cache_hit"] is True
        accepted = b.submit(
            "cat shared.txt > out.txt",
            inputs=[("shared.txt", name)],
            outputs=["out.txt"],
        )
        results = b.run_until_done(timeout=60)
        assert [r["exit_code"] for r in results] == [0]
        b_out = b.fetch(accepted["outputs"]["out.txt"], timeout=60)

    # the reuse is a first-class fact in the txn log...
    shared_events = [e for e in mgr.log.events("cache_shared") if e.file == name]
    assert shared_events and shared_events[0].category == "bob"
    # ...and cost zero additional transfers of the shared input
    assert transfer_count(mgr, name) == transfers_before

    # loopback equivalence: the standalone in-process API yields
    # byte-identical output for the same workflow
    f = mgr.declare_buffer(SHARED)
    t = Task("cat shared.txt > out.txt")
    t.add_input(f, "shared.txt")
    out = mgr.declare_temp()
    t.add_output(out, "out.txt")
    mgr.submit(t)
    done = mgr.run_until_done(timeout=60)
    assert [x.state for x in done] == [TaskState.DONE]
    standalone = mgr.fetch_bytes(out, timeout=60)
    assert standalone == a_out == b_out == SHARED


def test_wrong_password_is_a_clean_reject(tmp_path):
    c = Cluster(tmp_path, n_workers=1, password="s3cret")
    try:
        with pytest.raises(ClientError, match="auth"):
            client_for(c, "mallory", password="wrong")
        with pytest.raises(ClientError, match="auth"):
            client_for(c, "mallory")  # no password at all
        rejected = list(c.manager.log.events("client_rejected"))
        assert len(rejected) == 2
        assert all(e.category == "auth" for e in rejected)
        # the right password still attaches: the reactor survived
        with client_for(c, "alice", password="s3cret") as a:
            assert a.session
    finally:
        c.stop()


def test_over_quota_submit_is_a_clean_reject(service_cluster):
    mgr = service_cluster.manager
    mgr.set_tenant_quota("greedy", task_quota=1)
    with client_for(service_cluster, "greedy") as g:
        g.submit("sleep 5")
        with pytest.raises(ClientError, match="quota"):
            g.submit("true")
    rejected = list(mgr.log.events("client_rejected"))
    assert rejected and rejected[-1].category == "request"


def test_unknown_client_kind_is_a_clean_reject(service_cluster):
    mgr = service_cluster.manager
    conn = Connection.connect(mgr.host, mgr.port, timeout=30)
    conn.settimeout(30)
    try:
        conn.send_message({"type": M.CLIENT_HELLO, "tenant": "probe"})
        assert conn.recv_message()["type"] == M.WELCOME

        conn.send_message({"type": "flarp"})
        reply = conn.recv_message()
        assert reply["type"] == M.CLIENT_REJECT
        assert reply["reason"].startswith("protocol")

        # a worker-only kind from a client session is equally rejected
        conn.send_message({"type": "heartbeat", "worker_id": "w0"})
        reply = conn.recv_message()
        assert reply["type"] == M.CLIENT_REJECT
        assert reply["reason"].startswith("protocol")

        # the session survived both violations: a normal detach works
        conn.send_message({"type": M.DETACH})
        assert conn.recv_message()["type"] == M.DETACHED
    finally:
        conn.close()
    rejected = [e for e in mgr.log.events("client_rejected") if e.category == "protocol"]
    assert len(rejected) == 2


def test_detach_then_reattach_replays_buffered_results(service_cluster):
    mgr = service_cluster.manager
    client = client_for(service_cluster, "roaming")
    accepted = client.submit("echo done > out.txt", outputs=["out.txt"])
    token = client.detach()

    # the workflow finishes while nobody is attached; notices buffer
    service_cluster.events.wait_event(
        "workflow_done", predicate=lambda e: e.category == "roaming", timeout=60
    )

    with client_for(service_cluster, "roaming", session=token) as again:
        assert again.session == token
        results = again.run_until_done(timeout=30)
        assert [r["task_id"] for r in results] == [accepted["task_id"]]
        assert results[0]["exit_code"] == 0

    # a stale/foreign token is refused outright
    with pytest.raises(ClientError, match="session"):
        client_for(service_cluster, "intruder", session="bogus-token")


def test_incremental_submits_do_not_end_the_workflow_early(service_cluster):
    # task 1 finishing between two submits makes the outstanding set
    # momentarily empty and emits a workflow_done notice; the client
    # must not take that for completion of work it submits afterwards
    with client_for(service_cluster, "steady") as c:
        first = c.submit("echo one > out.txt", outputs=["out.txt"])
        c.wait(first["task_id"], timeout=60)
        # drain the stream past the momentary workflow_done notice
        c.fetch(first["outputs"]["out.txt"], timeout=60)
        second = c.submit("echo two > out.txt", outputs=["out.txt"])
        results = c.run_until_done(timeout=60)
        assert {r["task_id"] for r in results} == {second["task_id"]}


def test_reattach_displaces_the_stale_connection(service_cluster):
    mgr = service_cluster.manager
    first = client_for(service_cluster, "roamer")
    second = ServiceClient(mgr.host, mgr.port, "roamer", session=first.session)
    try:
        # the displaced socket dying must not detach the live
        # attachment (regression: its EOF used to null the session's
        # handle and stop the new sender)
        first.close()
        accepted = second.submit("echo alive > out.txt", outputs=["out.txt"])
        assert second.wait(accepted["task_id"], timeout=60)["exit_code"] == 0
    finally:
        second.close()


def test_client_local_declares_are_rejected_without_a_root(service_cluster):
    # remote tenants share one project password: an ungated kind=local
    # declare would read any file on the manager host
    with client_for(service_cluster, "mallory") as m:
        with pytest.raises(ClientError, match="local"):
            m.declare_local("/etc/hostname")
    rejected = list(service_cluster.manager.log.events("client_rejected"))
    assert rejected and rejected[-1].category == "request"


def test_client_local_declares_stay_inside_the_root(tmp_path):
    root = tmp_path / "exports"
    root.mkdir()
    (root / "data.txt").write_text("served\n")
    c = Cluster(tmp_path, n_workers=1, client_local_root=str(root))
    try:
        with client_for(c, "alice") as a:
            declared = a.declare_local("data.txt")
            accepted = a.submit(
                "cat in.txt > out.txt",
                inputs=[("in.txt", declared["cache_name"])],
                outputs=["out.txt"],
            )
            a.run_until_done(timeout=60)
            assert a.fetch(accepted["outputs"]["out.txt"], timeout=60) == b"served\n"
            for escape in ("../outside.txt", "/etc/hostname"):
                with pytest.raises(ClientError):
                    a.declare_local(escape)
    finally:
        c.stop()


def test_fetch_serves_declared_buffers_from_the_manager(service_cluster):
    with client_for(service_cluster, "alice") as a:
        declared = a.declare_buffer(b"round trip")
        assert a.fetch(declared["cache_name"]) == b"round trip"
        # names outside the tenant namespace are refused
        with pytest.raises(ClientError):
            a.fetch("buffer-md5-deadbeef")


# -- the on-demand result fetch plane ---------------------------------


def _proc_for(cluster, worker_id):
    """The OS process behind a registered worker id."""
    workdir = cluster.manager.workers[worker_id].workdir
    name = workdir.rsplit("worker-", 1)[1]
    return cluster.procs[int(name[1:])]  # launch names are w0, w1, ...


def _produce_output(client, payload="payload"):
    """Submit one task producing a worker-held temp output."""
    accepted = client.submit(f"echo {payload} > out.txt", outputs=["out.txt"])
    assert client.wait(accepted["task_id"], timeout=60)["exit_code"] == 0
    return accepted["outputs"]["out.txt"]


def test_concurrent_fetches_of_one_name_share_one_serve(service_cluster):
    mgr = service_cluster.manager
    with client_for(service_cluster, "alice") as a, client_for(
        service_cluster, "alice"
    ) as b:
        name = _produce_output(a)
        # freeze the only holder so both requests park on one waiter
        # list before any payload can come back
        proc = _proc_for(service_cluster, next(iter(mgr.replicas.locate(name))))
        os.kill(proc.pid, signal.SIGSTOP)
        try:
            got = {}
            threads = [
                threading.Thread(
                    target=lambda c=c, k=k: got.__setitem__(
                        k, c.fetch(name, timeout=60)
                    ),
                )
                for k, c in (("one", a), ("two", b))
            ]
            for t in threads:
                t.start()
            time.sleep(1.0)
        finally:
            os.kill(proc.pid, signal.SIGCONT)
        for t in threads:
            t.join(timeout=60)
        assert got == {"one": b"payload\n", "two": b"payload\n"}
    # one SEND_BACK served both waiters: a single fetch transfer moved
    # the bytes through the manager
    fetched = [e for e in mgr.log.events("transfer_end") if e.category == "@fetch"]
    assert [e.file for e in fetched] == [name]


def test_fetch_after_reattach(service_cluster):
    client = client_for(service_cluster, "roaming")
    accepted = client.submit("echo kept > out.txt", outputs=["out.txt"])
    token = client.detach()
    service_cluster.events.wait_event(
        "workflow_done", predicate=lambda e: e.category == "roaming", timeout=60
    )
    # the notice stream is gone, but the result stays fetchable by name
    with client_for(service_cluster, "roaming", session=token) as again:
        assert again.fetch(accepted["outputs"]["out.txt"], timeout=60) == b"kept\n"


def test_fetch_retries_surviving_holder_when_the_asked_worker_dies(tmp_path):
    c = Cluster(tmp_path, n_workers=2, temp_replica_count=2)
    try:
        mgr = c.manager
        with client_for(c, "alice") as a:
            name = _produce_output(a, payload="replicated")
            c.events.wait_for(
                lambda: len(mgr.replicas.locate(name)) == 2,
                timeout=60,
                describe="output replicated to both workers",
            )
            # the fetch deterministically asks the lowest worker id;
            # freeze it so the request is parked there, then kill it
            asked = min(mgr.replicas.locate(name))
            proc = _proc_for(c, asked)
            os.kill(proc.pid, signal.SIGSTOP)
            got = {}
            t = threading.Thread(
                target=lambda: got.__setitem__("data", a.fetch(name, timeout=60))
            )
            t.start()
            time.sleep(1.0)
            os.kill(proc.pid, signal.SIGKILL)
            t.join(timeout=60)
            assert got.get("data") == b"replicated\n"
        retried = [e for e in mgr.log.events("fetch_retried") if e.file == name]
        assert retried and retried[0].worker == asked
        assert retried[0].category == "worker_lost"
    finally:
        c.stop()


def test_fetch_regenerates_results_lost_with_their_worker(tmp_path):
    c = Cluster(tmp_path, n_workers=1)
    try:
        mgr = c.manager
        with client_for(c, "alice") as a:
            name = _produce_output(a, payload="rebuilt")
            # every replica dies with the only worker
            wid = next(iter(mgr.replicas.locate(name)))
            os.kill(_proc_for(c, wid).pid, signal.SIGKILL)
            c.events.wait_event(
                "worker_leave", predicate=lambda e: e.worker == wid, timeout=60
            )
            c.start_worker("w1")
            c.wait_workers(1)
            # lineage still knows the recipe: the fetch reruns the
            # producer on the fresh worker and serves its output
            assert a.fetch(name, timeout=90) == b"rebuilt\n"
        regenerated = [e for e in mgr.log.events("file_regenerated") if e.file == name]
        assert regenerated
    finally:
        c.stop()


def test_small_tenant_sessions_are_not_queued_behind_a_flood():
    """Fair share through real client sessions: a tenant that floods the
    queue first does not make later, smaller tenants wait it out.  (The
    assertion the retired multi-tenant throughput bench carried, by
    dispatch *order* instead of wall time.)"""
    from repro.core.manager import Manager
    from repro.worker.scripted import ScriptedWorker

    flood, small, tenants = 200, 15, ("t1", "t2")
    spec = {"command": "noop", "inputs": [], "outputs": ["out0"]}
    mgr = Manager(worker_liveness_timeout=None)
    worker = None
    clients = {n: ServiceClient(mgr.host, mgr.port, n) for n in ("t0",) + tenants}
    try:
        clients["t0"].submit_dag([spec] * flood)
        for name in tenants:
            clients[name].submit_dag([spec] * small)
        worker = ScriptedWorker(mgr.host, mgr.port, cores=4)  # acks instantly
        for c in clients.values():
            c.run_until_done(timeout=60)
        order = on_reactor(
            mgr, lambda: [mgr.tasks[e.task].tenant for e in mgr.log.events("task_start")]
        )
    finally:
        for c in clients.values():
            c.close()
        mgr.close(shutdown_workers=False)
        if worker is not None:
            worker.close(timeout=2)
    assert len(order) == flood + small * len(tenants)
    last_small = max(i for i, tenant in enumerate(order) if tenant != "t0")
    # deficit round-robin deals the three tenants in turn, so the small
    # ones are through after ~3 x 15 starts — FIFO would put them last
    assert last_small < len(order) // 2
