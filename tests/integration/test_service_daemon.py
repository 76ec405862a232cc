"""Daemon lifecycle: ``repro-service run`` → client demos → ``stop``.

Exercises the same flow as the CI service-mode smoke job, entirely
through subprocesses: daemonize the service, attach two tenants via
the client CLI (the second tenant's shared input must be a cache hit),
check ``status``, then ``stop`` and verify a clean exit with the state
file removed.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.service.daemon import STATE_FILE, TXN_LOG


def run_cli(module, *args, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


def wait_state(state_dir, timeout=30):
    deadline = time.time() + timeout
    path = os.path.join(state_dir, STATE_FILE)
    while time.time() < deadline:
        if os.path.exists(path):
            with open(path) as f:
                return json.load(f)
        time.sleep(0.1)
    raise TimeoutError(f"service never wrote {path}")


@pytest.fixture()
def service(tmp_path):
    state_dir = str(tmp_path / "svc")
    proc = run_cli(
        "repro.service.daemon",
        "run",
        "--state-dir", state_dir,
        "--workers", "1",
        "--cores", "2",
        "--detach",
    )
    assert proc.returncode == 0, proc.stderr
    state = wait_state(state_dir)
    yield state_dir, state
    # belt and braces: never leak the daemon past the test
    run_cli("repro.service.daemon", "stop", "--state-dir", state_dir, "--quiet-missing")


def test_daemon_serves_two_tenants_then_stops_clean(service):
    state_dir, state = service
    endpoint = f"{state['host']}:{state['port']}"

    first = run_cli(
        "repro.service.client",
        "--connect", endpoint, "--tenant", "alice",
        "demo", "--tasks", "2",
    )
    assert first.returncode == 0, first.stderr
    report_a = json.loads(first.stdout)
    assert report_a["cache_hit"] is False and report_a["succeeded"] == 2

    second = run_cli(
        "repro.service.client",
        "--connect", endpoint, "--tenant", "bob",
        "demo", "--tasks", "2",
    )
    assert second.returncode == 0, second.stderr
    report_b = json.loads(second.stdout)
    # same default --content: bob's shared input is already cached
    assert report_b["cache_name"] == report_a["cache_name"]
    assert report_b["cache_hit"] is True and report_b["succeeded"] == 2

    # the reuse landed in the daemon's transaction log
    with open(os.path.join(state_dir, TXN_LOG)) as f:
        log_text = f.read()
    assert "cache_shared" in log_text

    # the tenant table comes from the periodic metrics dump (1s
    # interval), so poll briefly for both tenants to land in it
    deadline = time.time() + 10
    while True:
        status = run_cli("repro.service.daemon", "status", "--state-dir", state_dir)
        assert status.returncode == 0, status.stderr
        assert "running" in status.stdout
        if "alice" in status.stdout and "bob" in status.stdout:
            break
        assert time.time() < deadline, f"tenant table never filled:\n{status.stdout}"
        time.sleep(0.5)

    stop = run_cli("repro.service.daemon", "stop", "--state-dir", state_dir)
    assert stop.returncode == 0, stop.stderr
    assert not os.path.exists(os.path.join(state_dir, STATE_FILE))

    # stop again: already-gone service is still exit 0 with --quiet-missing
    again = run_cli(
        "repro.service.daemon", "stop", "--state-dir", state_dir, "--quiet-missing"
    )
    assert again.returncode == 0


def test_second_run_refuses_while_daemon_alive(service):
    state_dir, _state = service
    dup = run_cli("repro.service.daemon", "run", "--state-dir", state_dir, "--workers", "0")
    assert dup.returncode == 1
    assert "already running" in dup.stderr


# ----------------------------------------------------------------------
# stale pidfiles: the footprint a kill -9 leaves behind
# ----------------------------------------------------------------------


def _dead_pid():
    """A pid guaranteed dead: a child we already reaped."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


def _write_stale_state(state_dir):
    os.makedirs(state_dir, exist_ok=True)
    state = {
        "pid": _dead_pid(),
        "host": "127.0.0.1",
        "port": 59999,
        "project": "repro",
        "started": time.time() - 60,
    }
    with open(os.path.join(state_dir, STATE_FILE), "w") as f:
        json.dump(state, f)
    return state


def test_status_reports_stale_pidfile_and_exits_nonzero(tmp_path):
    state_dir = str(tmp_path / "svc")
    state = _write_stale_state(state_dir)
    status = run_cli("repro.service.daemon", "status", "--state-dir", state_dir)
    assert status.returncode != 0
    assert "dead (stale pidfile)" in status.stdout
    assert str(state["pid"]) in status.stdout


def test_stop_cleans_stale_pidfile_and_exits_nonzero(tmp_path):
    state_dir = str(tmp_path / "svc")
    _write_stale_state(state_dir)
    stop = run_cli("repro.service.daemon", "stop", "--state-dir", state_dir)
    # nonzero: there was nothing to stop — the last life crashed
    assert stop.returncode != 0
    assert "stale pidfile" in stop.stdout
    assert not os.path.exists(os.path.join(state_dir, STATE_FILE))


def test_run_reclaims_stale_state_dir(tmp_path):
    state_dir = str(tmp_path / "svc")
    _write_stale_state(state_dir)
    proc = run_cli(
        "repro.service.daemon",
        "run",
        "--state-dir", state_dir,
        "--workers", "0",
        "--detach",
    )
    try:
        assert proc.returncode == 0, proc.stderr
        assert "reclaiming state dir" in proc.stdout
        state = wait_state(state_dir)
        # a fresh live pid replaced the stale one
        assert state["pid"] != 0 and os.path.exists(f"/proc/{state['pid']}")
        status = run_cli("repro.service.daemon", "status", "--state-dir", state_dir)
        assert status.returncode == 0
        assert "running" in status.stdout
    finally:
        run_cli(
            "repro.service.daemon", "stop", "--state-dir", state_dir, "--quiet-missing"
        )


def _txn_events(state_dir, kind):
    with open(os.path.join(state_dir, TXN_LOG)) as f:
        records = [json.loads(line) for line in f if line.strip()]
    return [r for r in records if r.get("kind") == kind]


def _processes_under(state_dir):
    """Pids whose command line names ``state_dir`` (the local fleet)."""
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/cmdline", "rb") as f:
                    if state_dir.encode() in f.read():
                        pids.append(int(entry))
            except OSError:
                pass  # exited while we looked
    return pids


def test_autoscale_grows_under_a_burst_then_drains_the_idle_fleet(tmp_path):
    """``run --autoscale``: the control plane's tick, armed on the
    manager's own loop, spawns workers for a deep queue and gracefully
    drains the surplus once it is empty."""
    from repro.service.client import ServiceClient

    state_dir = str(tmp_path / "svc")
    proc = run_cli(
        "repro.service.daemon", "run", "--state-dir", state_dir,
        "--workers", "1", "--cores", "1",
        "--autoscale", "--min-workers", "1", "--max-workers", "3",
        "--tasks-per-worker", "1", "--scale-interval", "0.5",
        "--detach",
    )
    assert proc.returncode == 0, proc.stderr
    try:
        state = wait_state(state_dir)
        with ServiceClient(state["host"], state["port"], "alice") as client:
            for _ in range(8):
                client.submit("sleep 1")
            notices = client.run_until_done(timeout=90)
        assert [n["state"] for n in notices] == ["done"] * 8

        def decided(direction):
            return sum(
                e["size"]
                for e in _txn_events(state_dir, "autoscale")
                if e["category"] == direction
            )

        # 7 tasks queued behind one 1-core worker: the fleet grows (to
        # its ceiling, unless a tick caught the burst half submitted)
        grown = decided("up")
        assert 1 <= grown <= 2
        assert _txn_events(state_dir, "autoscale")[0]["category"] == "up"
        deadline = time.time() + 30
        while len(_txn_events(state_dir, "worker_drained")) < grown:
            assert time.time() < deadline, "the idle fleet never drained"
            time.sleep(0.2)
        # ... and shrinks back to its floor, each departure a drain
        assert decided("up") == decided("down") == grown
        assert len(_txn_events(state_dir, "worker_drain")) == grown
        # the tick is a deadline of the manager's loop, not a thread of
        # its own: the daemon is its main thread plus the reactor
        threads = os.listdir(f"/proc/{state['pid']}/task")
        assert len(threads) == 2, threads
        stop = run_cli("repro.service.daemon", "stop", "--state-dir", state_dir)
        assert stop.returncode == 0, stop.stderr
        assert _processes_under(state_dir) == []
    finally:
        run_cli(
            "repro.service.daemon", "stop", "--state-dir", state_dir, "--quiet-missing"
        )
