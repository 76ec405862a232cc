"""What one task costs the reactor, counted — never timed.

The reactor is the manager's transport layer: per sweep it reads every
readable peer, applies its inbox and writes each peer's FIFO with one
``send``.  This test runs a few hundred noop tasks through a
:class:`Manager` and a :class:`ScriptedWorker` fleet and counts, per
task, the socket calls the loop makes and the wake bytes anyone writes:

* ``Reactor._write`` calls (the one place bytes reach a socket) are never
  more than the frames the manager sends, since a sweep joins each
  peer's frames into one ``send``;
* ``recv`` calls on peer sockets are about one per frame read (a frame
  split across two reads is allowed for, up to one in ten);
* the loop never writes a wake byte: only another thread's post does,
  and a post the loop makes is picked up by its next ``select``.

How many frames one ``send`` carries depends on timing, so the bounds
are ratios, not figures; the counts do not depend on the hash seed.
Run with ``-s`` to see them.
"""

from collections import Counter

from repro.core.manager import Manager
from repro.core.reactor import Reactor
from repro.worker.scripted import ScriptedWorker
from tests.core.test_memory_budget import TASKS, WORKERS, _run, _wait_for


class _Counted:
    """A socket whose ``recv`` and ``send`` calls are tallied."""

    def __init__(self, sock, tally) -> None:
        self._sock = sock
        self._tally = tally

    def recv(self, size):
        self._tally("recv")
        return self._sock.recv(size)

    def send(self, data, *flags):
        self._tally("send")
        return self._sock.send(data, *flags)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _count(monkeypatch):
    """Tally peer ``recv`` calls, ``_write`` calls and wake-pipe writes
    (by whether the loop made them) of every reactor built from now on."""
    counts: Counter = Counter()
    init, adopt, write = Reactor.__init__, Reactor.adopt, Reactor._write

    def counted_init(reactor, *args, **kwargs):
        init(reactor, *args, **kwargs)

        def wake(call):
            counts["wake (loop)" if reactor.on_loop() else "wake (other)"] += 1

        reactor._wake_w = _Counted(reactor._wake_w, wake)

    def counted_adopt(reactor, sock):
        return adopt(reactor, _Counted(sock, lambda call: counts.update((call,))))

    def counted_write(sock, data):
        counts["_write"] += 1
        return write(sock, data)

    monkeypatch.setattr(Reactor, "__init__", counted_init)
    monkeypatch.setattr(Reactor, "adopt", counted_adopt)
    monkeypatch.setattr(Reactor, "_write", staticmethod(counted_write))
    return counts


def _frames(m):
    snap = m.metrics.snapshot()
    return snap["net.frames_out"]["value"], snap["net.frames_in"]["value"]


def test_a_noop_task_costs_the_reactor_no_more_calls_than_frames(monkeypatch):
    counts = _count(monkeypatch)
    m = Manager(worker_liveness_timeout=None)
    workers = [ScriptedWorker(m.host, m.port) for _ in range(WORKERS)]
    try:
        _wait_for(lambda: len(m.workers) == WORKERS, "registrations")
        _run(m, 20)  # registrations and first placements behind us
        before, (out0, in0) = counts.copy(), _frames(m)
        _run(m, TASKS)
        after, (out1, in1) = counts.copy(), _frames(m)
    finally:
        m.close()
        for w in workers:
            w.close()
    per_task = {k: (after[k] - before[k]) / TASKS for k in after}
    frames_out, frames_in = (out1 - out0) / TASKS, (in1 - in0) / TASKS
    print()
    print(
        f"per noop task: {per_task['_write']:.2f} sends for {frames_out:.2f} "
        f"frames out, {per_task['recv']:.2f} recvs for {frames_in:.2f} frames in; "
        f"wake bytes for {TASKS} tasks: "
        f"{after['wake (other)'] - before['wake (other)']} by the test thread's "
        f"posts, {counts['wake (loop)']} by the loop (whole run)"
    )
    assert counts["wake (loop)"] == 0, counts
    assert 0 < per_task["_write"] <= frames_out, (per_task, frames_out)
    assert 0 < per_task["recv"] <= 1.1 * frames_in, (per_task, frames_in)
