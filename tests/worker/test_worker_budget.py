"""What a plain command task costs the worker, counted — never timed.

A noop ``execute`` is meant to cost the worker one fork (the task's
child), one thread (its link, exec and harvest) and one outbound frame
(its ``task_done``), however many arrive at once; reports that land in
one sweep of the worker's loop leave in one socket write.  A real
:class:`~repro.worker.worker.Worker` serves the scripted manager of
``test_worker_unit.py``, a burst of noop tasks arrives in one write,
and the test wraps the functions that do that work and bounds how often
they were entered.  Nothing is read off a clock — a heartbeat that
falls inside the burst is told apart by its type — so a slow machine
cannot fail it and a regression cannot hide behind a fast one; run with
``-s`` to see the figures.
"""

import subprocess
import threading
import time
from collections import Counter

from repro.protocol.connection import FrameReassembler, encode_frame
from repro.protocol.messages import M
from repro.worker.worker import Worker
from tests.worker.test_worker_unit import FakeManager

BURST = 32

#: per noop task: frames the worker writes (heartbeats aside), children
#: it forks, threads it starts
BOUND = {"frames": 1, "forks": 1, "threads": 1}


def _noop(i: int) -> dict:
    return {
        "type": M.EXECUTE, "task_id": f"t{i}", "command": "true",
        "inputs": [], "outputs": [], "env": {}, "resources": {"cores": 1},
    }


def _reports(fake: FakeManager) -> int:
    with fake._lock:
        return sum(1 for m, _ in fake.messages if m["type"] == M.TASK_DONE)


def test_a_noop_task_costs_the_worker_one_fork_one_thread_one_frame(
    tmp_path, monkeypatch
):
    fake = FakeManager()
    worker = Worker(fake.host, fake.port, str(tmp_path / "w"), cores=BURST)
    counts: Counter = Counter()
    frames: Counter = Counter()  # message type -> frames written
    wire = FrameReassembler()
    real_write = worker.reactor._write

    def counted_write(sock, data):
        sent = real_write(sock, data)
        counts["writes"] += 1
        wire.feed(bytes(data[:sent]))
        while (item := wire.next_item()) is not None:
            frames[item[1]["type"]] += 1
        return sent

    worker.reactor._write = counted_write
    runner = threading.Thread(target=worker.run, daemon=True)
    runner.start()
    try:
        fake.wait_for(M.REGISTER)
        frames.clear()
        counts.clear()
        real_start = threading.Thread.start
        real_child = subprocess.Popen._execute_child

        def counted_start(thread):
            counts["threads"] += 1
            return real_start(thread)

        def counted_child(popen, *args, **kwargs):
            counts["forks"] += 1
            return real_child(popen, *args, **kwargs)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        monkeypatch.setattr(subprocess.Popen, "_execute_child", counted_child)
        fake.conn.send_frame(b"".join(encode_frame(_noop(i)) for i in range(BURST)))
        deadline = time.monotonic() + 60.0
        while _reports(fake) < BURST:
            assert time.monotonic() < deadline, f"{_reports(fake)} of {BURST} reported"
            time.sleep(0.02)
        monkeypatch.undo()
    finally:
        worker.shutdown()
    beats = frames.pop(M.HEARTBEAT, 0)
    per_task = {
        "frames": sum(frames.values()) / BURST,
        "forks": counts["forks"] / BURST,
        "threads": counts["threads"] / BURST,
    }
    print(f"\nper noop task over a burst of {BURST}:")
    for name, value in per_task.items():
        print(f"  {name:8} {value:5.2f}  (bound {BOUND[name]})")
    print(f"  writes   {counts['writes'] / BURST:5.2f}  ({beats} heartbeats)")
    assert frames == {M.TASK_DONE: BURST}, frames
    for name, value in per_task.items():
        assert value <= BOUND[name], (name, value)
    # coalesced: reports that landed in one sweep left in one write
    assert counts["writes"] <= BURST + beats
