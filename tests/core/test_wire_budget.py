"""What one task costs the wire, counted — never timed.

A noop task with three temp outputs crosses the wire twice: the
manager's ``execute`` to a worker, and the worker's ``task_done`` (its
outputs ride it) back.  These tests run a few hundred such tasks
through a :class:`Manager` and a :class:`ScriptedWorker` fleet and
bound the frames and bytes per task each way.

Each way is counted per message, as the manager sends it and as it
handles it: a scripted worker coalesces the replies of one read into a
``batch`` frame, and how many it coalesces depends on timing, so the
inbound count is of messages — what the frames would be unbatched,
never fewer than the frames are.  A message's bytes are its encoded
frame's, plus any bulk payload it announces.  The figures do not depend
on the machine or the hash seed; run with ``-s`` to see them.
"""

from repro.core.manager import Manager
from repro.protocol.connection import encode_frame
from repro.protocol.messages import M
from repro.worker.scripted import ScriptedWorker
from tests.core.test_memory_budget import TASKS, WORKERS, _run, _wait_for

#: frames per task each way: one command out, one report back
FRAMES_OUT = 1.0
FRAMES_IN = 1.0
#: bytes per task each way (≈ 298 B out and ≈ 254 B in measured on
#: CPython 3.11: an ``execute`` naming three outputs, a ``task_done``
#: listing them with their sizes)
BYTES_OUT = 310
BYTES_IN = 265


def _count(m):
    """Wrap the manager's one send and its worker-message handler;
    returns the tallies they keep: kind -> [messages, bytes], per way."""
    out, into = {}, {}
    send, handle = m._send, m._on_worker_message

    def counted_send(peer, message, payload=None):
        tally = out.setdefault(message["type"], [0, 0])
        tally[0] += 1
        tally[1] += len(encode_frame(message)) + (
            len(payload) if isinstance(payload, bytes) else 0
        )
        send(peer, message, payload)

    def counted_handle(worker, mtype, msg, payload):
        if mtype != M.BATCH:  # its members come back through here
            tally = into.setdefault(mtype, [0, 0])
            tally[0] += 1
            tally[1] += len(encode_frame(msg)) + (len(payload) if payload else 0)
        handle(worker, mtype, msg, payload)

    m._send = counted_send
    m._on_worker_message = counted_handle
    return out, into


def test_a_noop_task_costs_one_frame_each_way_under_its_byte_budget():
    m = Manager(worker_liveness_timeout=None)
    workers = [ScriptedWorker(m.host, m.port) for _ in range(WORKERS)]
    try:
        _wait_for(lambda: len(m.workers) == WORKERS, "registrations")
        _run(m, 20)  # registrations and first placements behind us
        out, into = _count(m)
        _run(m, TASKS)
        del m._send, m._on_worker_message  # workflow end is not counted
    finally:
        m.close()
        for w in workers:
            w.close()
    print()
    for way, tally, frame_bound, byte_bound in (
        ("manager -> worker", out, FRAMES_OUT, BYTES_OUT),
        ("worker -> manager", into, FRAMES_IN, BYTES_IN),
    ):
        frames = sum(n for n, _b in tally.values()) / TASKS
        nbytes = sum(b for _n, b in tally.values()) / TASKS
        kinds = ", ".join(f"{k} {n}" for k, (n, _b) in sorted(tally.items()))
        print(f"{way}: {frames:.2f} frames (bound {frame_bound}), "
              f"{nbytes:.1f} B (bound {byte_bound}) per task [{kinds}]")
        assert frames <= frame_bound, (way, tally)
        assert nbytes <= byte_bound, (way, tally)
