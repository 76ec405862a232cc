"""Serverless path over the event-driven manager: deploy → invoke → harvest.

The manager's reactor receive path has two special cases the serverless
model leans on: ``install_library``/``invoke`` commands with trailing
bulk payloads on the send side, and ``file_data`` frames announcing a
pulled-back result envelope on the receive side (the reactor must switch
its frame reassembler into bulk mode mid-stream).  These tests drive both with
real worker processes and real forked library instances, including a
resident-instance crash while a call is in flight.
"""

import os
import time

from repro.core.library import FunctionCall
from repro.core.resultref import ResultProxy
from repro.core.task import PythonTask, Task, TaskState

from tests.procgroup import live_members

from .conftest import Cluster
from .test_real_runtime import run_all


def test_library_deploy_invoke_harvest(cluster):
    """The full lifecycle: install once, fan out calls, harvest results."""
    m = cluster.manager

    def double(x):
        return [v * 2 for v in x]

    def tag(prefix, n=1):
        return f"{prefix}-{n}"

    m.create_library("mathlib", [double, tag], function_slots=2)
    m.install_library("mathlib")
    calls = [FunctionCall("mathlib", "double", list(range(i + 1))) for i in range(5)]
    calls.append(FunctionCall("mathlib", "tag", "run", n=7))
    for fc in calls:
        m.submit(fc)
    run_all(m)
    assert all(fc.state == TaskState.DONE for fc in calls)
    assert calls[0].output() == [0]
    assert calls[4].output() == [0, 2, 4, 6, 8]
    assert calls[5].output() == "run-7"
    # every call produced a completion event in the transaction log
    assert len(list(m.log.events("task_end"))) >= len(calls)
    # and reported how long the invocation took at the worker
    invoke = m.metrics.snapshot()["library.invoke_seconds"]
    assert invoke["count"] == len(calls) and invoke["sum"] > 0


def test_a_library_installed_mid_stream_serves_the_rest_of_a_map(cluster):
    """A function's first calls run as plain PythonTasks; the library
    made of it is installed while they are still queued, and the rest of
    the map goes to it as FunctionCalls with two slots an instance."""
    m = cluster.manager

    def double(x):
        return x * 2

    plain = [PythonTask(double, i) for i in range(2)]
    for t in plain:
        m.submit(t)
    m.create_library("hot", [double], function_slots=2)
    m.install_library("hot")
    calls = [FunctionCall("hot", "double", i) for i in range(2, 8)]
    for fc in calls:
        m.submit(fc)
    run_all(m)
    tasks = plain + calls
    assert all(t.state == TaskState.DONE for t in tasks)
    assert [t.output() for t in tasks] == [i * 2 for i in range(8)]
    assert not m.control._lib_load  # every call's slot was given back


def test_function_result_larger_than_io_chunk(cluster):
    """A multi-megabyte result rides the bulk path through the reactor.

    The envelope stays in the worker's cache; the manager pulls it back
    for this value-mode call with ``send_back``, and the ``file_data``
    reply announces ``size`` with the payload following as raw bytes
    spanning several reactor reads — this is the mid-stream
    frame→bulk→frame switch.
    """
    m = cluster.manager

    def blob(n):
        return b"\xab" * n

    m.create_library("bulk", [blob])
    m.install_library("bulk")
    size = 3 * (1 << 20)  # > IO_CHUNK, so reassembly spans reads
    fc = FunctionCall("bulk", "blob", size)
    m.submit(fc)
    run_all(m)
    assert fc.state == TaskState.DONE
    result = fc.output()
    assert len(result) == size and result[:2] == b"\xab\xab"


def test_library_instance_crash_mid_call(cluster, tmp_path):
    """Killing the resident instance mid-call fails fast, not at timeout.

    The invocation fork SIGKILLs its parent — the resident library
    process — then stalls.  The worker's result wait must detect the
    death within about a second, report the call failed, kill the
    orphaned fork with the rest of the instance's process group, and
    the rest of the runtime must keep working.
    """
    m = cluster.manager
    pgid_file = str(tmp_path / "instance-pgid")

    def suicide(pgid_file):
        import os
        import signal
        import time

        with open(pgid_file, "w") as f:
            f.write(str(os.getpgrp()))
        os.kill(os.getppid(), signal.SIGKILL)  # the resident instance
        time.sleep(30)  # never returns a result

    m.create_library("doomed", [suicide])
    m.install_library("doomed")
    fc = FunctionCall("doomed", "suicide", pgid_file)
    m.submit(fc)
    run_all(m, timeout=60.0)
    assert fc.state == TaskState.FAILED
    assert "died before invocation" in (fc.result.output or "")

    # the stalled fork did not outlive the call it belonged to: nothing
    # of the instance's own process group is left running user code
    with open(pgid_file) as f:
        pgid = int(f.read())
    assert pgid != os.getpgrp()
    deadline = time.monotonic() + 5.0
    while live_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert live_members(pgid) == []

    # a later call against the dead library fails cleanly too
    fc2 = FunctionCall("doomed", "suicide", pgid_file)
    m.submit(fc2)
    run_all(m, timeout=60.0)
    assert fc2.state == TaskState.FAILED

    # and the workers + reactor are still healthy for ordinary work
    t = Task("echo survived")
    m.submit(t)
    run_all(m, timeout=60.0)
    assert t.state == TaskState.DONE
    assert "survived" in t.result.output

    # with no orphan holding the workers' descriptors, shutdown is
    # prompt (it used to wait out a 10 s join)
    started = time.monotonic()
    cluster.stop()
    assert time.monotonic() - started < 2.0


def test_by_reference_chain_keeps_results_at_workers(cluster):
    """A by-reference call chain moves zero result bytes via the manager.

    The first call's quarter-megabyte output stays in the worker cache;
    the second call consumes it through a proxy argument (worker-to-
    worker staging).  Only the final integer crosses the fetch plane,
    when the test dereferences it.
    """
    m = cluster.manager

    def make(n):
        return b"\x07" * n

    def measure(blob, extra=0):
        return len(blob) + extra

    m.create_library("chain", [make, measure], function_slots=2)
    m.install_library("chain")
    first = FunctionCall("chain", "make", 1 << 18).set_by_reference()
    m.submit(first)
    run_all(m)
    assert first.state == TaskState.DONE
    proxy = first.output()
    assert isinstance(proxy, ResultProxy)
    assert proxy.ref.size > 1 << 18  # envelope wraps the payload

    second = FunctionCall("chain", "measure", proxy, extra=1).set_by_reference()
    m.submit(second)
    run_all(m)
    assert second.state == TaskState.DONE
    assert second.output().resolve() == (1 << 18) + 1

    # no result payload ever rode a task reply through the manager
    assert not [e for e in m.log.events() if e.category == "@retrieve"]
    fetched = [e for e in m.log.events("transfer_end") if e.category == "@fetch"]
    assert [e.file for e in fetched] == [second.output().cache_name]


def test_function_call_memo_hit_serves_by_reference(tmp_path):
    """An identical deterministic call is served from memo, not re-run.

    Inline-result calls used to veto memo recording outright; the
    by-reference plane makes the result an ordinary replica-backed
    cache object, so the veto is gone and hits serve.
    """
    c = Cluster(tmp_path, n_workers=1, memo_dir=str(tmp_path / "memo"))
    try:
        m = c.manager

        def triple(n):
            return n * 3

        m.create_library("memolib", [triple])
        m.install_library("memolib")
        first = FunctionCall("memolib", "triple", 14)
        first.set_by_reference().set_deterministic()
        m.submit(first)
        run_all(m)
        assert first.state == TaskState.DONE

        second = FunctionCall("memolib", "triple", 14)
        second.set_by_reference().set_deterministic()
        m.submit(second)
        run_all(m)
        assert second.state == TaskState.DONE
        assert len(list(m.log.events("memo_hit"))) == 1
        assert second.output().cache_name == first.output().cache_name
        assert second.output().resolve() == 42
    finally:
        c.stop()
