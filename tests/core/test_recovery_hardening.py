"""Failure-recovery hardening in the shared control plane.

Covers the chaos-readiness machinery: per-(object, source) transfer
retry budgets with reset-on-success, exponential backoff holdoffs,
per-worker failure scores and the placement blocklist, corruption
treated as source-replica loss, deep (recursive) lineage regeneration,
and the retries-exhausted path that fails consumers instead of looping.
All through a FakePort with a hand-advanced clock — no sleeps.
"""

from repro.core.control_plane import TRANSFER_BACKOFF_MAX
from repro.core.files import TempFile
from repro.core.scheduler import GATE_AVOID, GATE_BANNED, GATE_OK
from repro.core.task import Task, TaskState
from repro.core.transfer_table import MANAGER_SOURCE

from tests.core.test_control_plane import (
    add_worker,
    declared,
    finish,
    make_control,
)


def _temp(control, name):
    f = TempFile()
    f.cache_name = name
    control.declare(f)
    return f


def _fail_transfer(control, record, corrupt=False):
    control.on_cache_invalid(
        record.dest_worker,
        record.cache_name,
        record.transfer_id,
        reason="injected",
        corrupt=corrupt,
    )


def _start_peer_fetch(port, control, name, src, dst):
    """Start a peer transfer and return its Transfer record."""
    control._start_transfer(name, src, dst)
    return port.fetches[-1]


# -- per-source retry accounting --------------------------------------


def test_retry_budget_is_per_source_not_per_object():
    port, control = make_control(transfer_retries=1, transfer_backoff_base=0.0)
    add_worker(port, control, "wA")
    add_worker(port, control, "wB")
    add_worker(port, control, "wC")
    declared(control, "obj", MANAGER_SOURCE, 100)
    control.register_replica("wA", "obj", 100, store=True)
    control.register_replica("wB", "obj", 100, store=True)
    # burn wA's budget for this object (2 failures > transfer_retries=1)
    for _ in range(2):
        record = _start_peer_fetch(port, control, "obj", "wA", "wC")
        _fail_transfer(control, record)
    # wA is banned for this object, but wB's budget is untouched
    assert control._transfer_gate("obj", "wA") == GATE_BANNED
    assert control._transfer_gate("obj", "wB") == GATE_OK
    # budgets are keyed by (object, source): a different object from the
    # burned source is unaffected
    assert control._transfer_gate("other-obj", "wA") == GATE_OK


def test_transfer_success_resets_failure_budget():
    port, control = make_control(transfer_retries=1, transfer_backoff_base=0.0)
    add_worker(port, control, "wA")
    f = declared(control, "data", MANAGER_SOURCE, 100)
    t = Task("use").add_input(f, "data")
    control.submit(t)
    control.pump()
    record = port.pushes[0]
    _fail_transfer(control, record)
    assert control._transfer_attempts[("data", MANAGER_SOURCE)] == 1
    control.pump()
    record = port.pushes[-1]
    control.on_cache_update("wA", "data", 100, record.transfer_id)
    # delivery clears the (object, source) budget entirely
    assert ("data", MANAGER_SOURCE) not in control._transfer_attempts
    assert control._transfer_gate("data", MANAGER_SOURCE) == GATE_OK


# -- backoff -----------------------------------------------------------


def test_failed_transfer_backs_off_then_retries():
    port, control = make_control(transfer_retries=3, transfer_backoff_base=1.0)
    add_worker(port, control, "wA")
    f = declared(control, "data", "url:server", 100)
    t = Task("use").add_input(f, "data")
    control.submit(t)
    control.pump()
    _fail_transfer(control, port.fetches[0])
    # the source is held off, not banned
    assert control._transfer_gate("data", "url:server") == GATE_AVOID
    control.pump()
    assert len(port.fetches) == 1  # no instant retry
    port.time += TRANSFER_BACKOFF_MAX
    assert control._transfer_gate("data", "url:server") == GATE_OK
    control.pump()
    assert len(port.fetches) == 2


def test_backoff_delay_grows_and_caps():
    port, control = make_control(transfer_backoff_base=1.0)
    delays = [control._backoff_delay(1.0, attempt) for attempt in range(1, 12)]
    # jitter is 50-150%, so attempt N is bounded by 1.5 * 2^(N-1)
    for attempt, delay in enumerate(delays, start=1):
        assert delay <= 1.5 * min(TRANSFER_BACKOFF_MAX, 2 ** (attempt - 1))
        assert delay >= 0.5 * min(1.0 * 2 ** (attempt - 1), TRANSFER_BACKOFF_MAX) * 0.99
    # deterministic for a fixed seed
    _, control2 = make_control(transfer_backoff_base=1.0)
    assert delays == [control2._backoff_delay(1.0, a) for a in range(1, 12)]


# -- failure scores and the blocklist ---------------------------------


def _burn_peer(port, control, name_prefix, bad, dest, n):
    """Inject n failed peer transfers served by ``bad`` toward ``dest``."""
    for i in range(n):
        name = f"{name_prefix}{i}"
        declared(control, name, MANAGER_SOURCE, 10)
        control.register_replica(bad, name, 10, store=True)
        record = _start_peer_fetch(port, control, name, bad, dest)
        _fail_transfer(control, record)


def test_repeat_offender_is_blocklisted_and_skipped():
    port, control = make_control(blocklist_threshold=3, transfer_backoff_base=0.0)
    add_worker(port, control, "wBad")
    add_worker(port, control, "wOk")
    _burn_peer(port, control, "x", "wBad", "wOk", 3)
    assert "wBad" in control.blocklist
    assert control.metrics.counter("workers.blocklisted").value == 1
    events = control.log.events("worker_blocklist")
    assert len(events) == 1 and events[0].worker == "wBad"
    # no placements on a blocklisted worker
    assert control._view_of("wBad", None) is None
    t = Task("anything")
    control.submit(t)
    control.pump()
    assert t.worker_id == "wOk"
    # and it is avoided (not banned) as a transfer source
    assert control._transfer_gate("fresh", "wBad") == GATE_AVOID


def test_last_worker_is_never_blocklisted():
    port, control = make_control(blocklist_threshold=2, transfer_backoff_base=0.0)
    add_worker(port, control, "wOnly")
    declared(control, "y0", MANAGER_SOURCE, 10)
    control.register_replica("wOnly", "y0", 10, store=True)
    for _ in range(4):
        record = _start_peer_fetch(port, control, "y0", "wOnly", "wGone")
        _fail_transfer(control, record)
    assert "wOnly" not in control.blocklist  # degraded beats empty
    assert control.failure_scores["wOnly"] >= 2


def test_departure_clears_failure_history():
    port, control = make_control(blocklist_threshold=2, transfer_backoff_base=0.0)
    add_worker(port, control, "wBad")
    add_worker(port, control, "wOk")
    _burn_peer(port, control, "z", "wBad", "wOk", 2)
    assert "wBad" in control.blocklist
    control.worker_left("wBad")
    assert "wBad" not in control.blocklist
    assert control.failure_scores["wBad"] == 0


def test_success_redeems_failure_score():
    port, control = make_control(transfer_backoff_base=0.0)
    add_worker(port, control, "wA")
    add_worker(port, control, "wB")
    _burn_peer(port, control, "q", "wA", "wB", 2)
    assert control.failure_scores["wA"] == 2
    declared(control, "good", MANAGER_SOURCE, 10)
    control.register_replica("wA", "good", 10, store=True)
    record = _start_peer_fetch(port, control, "good", "wA", "wB")
    control.on_transfer_complete(record.transfer_id)
    assert control.failure_scores["wA"] == 1


# -- corruption as replica loss ---------------------------------------


def test_corrupt_transfer_discards_source_replica():
    port, control = make_control(transfer_backoff_base=0.0)
    add_worker(port, control, "wSrc")
    add_worker(port, control, "wDst")
    declared(control, "obj", MANAGER_SOURCE, 10)
    control.register_replica("wSrc", "obj", 10, store=True)
    record = _start_peer_fetch(port, control, "obj", "wSrc", "wDst")
    _fail_transfer(control, record, corrupt=True)
    # the source's copy is suspect and dropped, not just the dest's
    assert not control.replicas.has_replica("obj", "wSrc")
    assert ("wSrc", "obj") in port.deleted
    assert control.metrics.counter("transfers.corrupt").value == 1
    deleted = [e for e in control.log.events("file_deleted") if e.category == "corrupt"]
    assert [e.worker for e in deleted] == ["wSrc"]
    # corruption weighs double on the failure score
    assert control.failure_scores["wSrc"] == 2


def test_corrupt_last_temp_replica_feeds_regeneration():
    port, control = make_control(transfer_backoff_base=0.0)
    add_worker(port, control, "wSrc")
    add_worker(port, control, "wDst")
    temp = _temp(control, "mid")
    producer = Task("make").add_output(temp, "out")
    control.submit(producer)
    control.pump()
    finish(port, control, producer)
    src = producer.worker_id
    dst = "wSrc" if src == "wDst" else "wDst"
    consumer = Task("use").add_input(temp, "mid")
    control.submit(consumer)
    # force the intermediate toward the non-holder so a peer transfer
    # carries the only replica
    record = _start_peer_fetch(port, control, "mid", src, dst)
    _fail_transfer(control, record, corrupt=True)
    # the only replica was the corrupt source's: lineage regenerates it
    assert producer.state == TaskState.READY
    assert producer.retries_used == 1
    assert control.log.events("file_regenerated")[0].file == "mid"


# -- deep lineage regeneration ----------------------------------------


def _chain(control, port, depth=3):
    """Build and run a linear chain t0 -> m0 -> t1 -> m1 -> ... on wA."""
    temps, tasks = [], []
    prev = None
    for i in range(depth):
        temp = _temp(control, f"m{i}")
        t = Task(f"stage{i}").add_output(temp, "out")
        if prev is not None:
            t.add_input(prev, "in")
        control.submit(t)
        control.pump()
        finish(port, control, t)
        control.pump()
        temps.append(temp)
        tasks.append(t)
        prev = temp
    return temps, tasks


def test_deep_lineage_regenerates_recursively():
    port, control = make_control()
    add_worker(port, control, "wA")
    add_worker(port, control, "wB")
    temps, tasks = _chain(control, port, depth=3)
    consumer = Task("use final").add_input(temps[-1], "final")
    control.submit(consumer)
    control.pump()
    # every intermediate lives on the same worker (locality); kill it
    lost = consumer.worker_id
    control.worker_left(lost)
    # the tail producer is resurrected; its missing input triggers the
    # next producer up, recursively to the head of the chain
    assert all(t.state == TaskState.READY for t in tasks)
    assert all(t.retries_used == 1 for t in tasks)
    regen = [e.file for e in control.log.events("file_regenerated")]
    assert set(regen) == {"m0", "m1", "m2"}
    # now the chain replays on the survivor and the consumer completes
    for t in tasks:
        control.pump()
        assert t.state == TaskState.RUNNING, t.task_id
        finish(port, control, t)
    control.pump()
    assert consumer.state == TaskState.RUNNING
    finish(port, control, consumer)
    assert consumer.state == TaskState.DONE


def test_regeneration_budget_exhausted_fails_consumer_not_loops():
    port, control = make_control(loss_retries=1)
    add_worker(port, control, "wA")
    add_worker(port, control, "wB")
    temp = _temp(control, "mid")
    producer = Task("make").add_output(temp, "out")
    control.submit(producer)
    control.pump()
    finish(port, control, producer)
    consumer = Task("use").add_input(temp, "mid")
    control.submit(consumer)
    control.pump()
    # first loss: regeneration spends the producer's only retry
    lost = consumer.worker_id
    control.worker_left(lost)
    assert producer.retries_used == 1
    control.pump()
    finish(port, control, producer)
    control.pump()
    assert consumer.state == TaskState.RUNNING
    # second loss: budget spent — the consumer fails instead of looping
    lost = consumer.worker_id
    control.worker_left(lost)
    assert producer.state == TaskState.DONE  # not resurrected again
    assert consumer.state == TaskState.FAILED
    assert "mid" in (consumer.result.failure or "") or "lineage" in (
        consumer.result.failure or ""
    ) or "lost" in (consumer.result.failure or "")


def test_regeneration_impossible_without_lineage_fails_waiters():
    port, control = make_control()
    add_worker(port, control, "wA")
    add_worker(port, control, "wB")
    temp = _temp(control, "orphan")
    # adopt a replica with no producing task recorded (no lineage)
    control.register_replica("wA", "orphan", 10, store=True)
    consumer = Task("use").add_input(temp, "orphan")
    control.submit(consumer)
    control.pump()
    lost = consumer.worker_id
    control.worker_left(lost)
    # with no producer to rerun, waiting tasks fail loudly
    assert consumer.state == TaskState.FAILED


# -- requeue backoff and fault accounting -----------------------------


def test_requeue_backoff_delays_replacement():
    port, control = make_control(requeue_backoff_base=2.0)
    add_worker(port, control, "wA")
    add_worker(port, control, "wB")
    t = Task("work")
    control.submit(t)
    control.pump()
    assert t.state == TaskState.RUNNING
    lost = t.worker_id
    control.worker_left(lost)
    assert t.state == TaskState.READY
    assert t.not_before > port.time
    control.pump()
    assert t.state == TaskState.READY  # held off, not replaced yet
    port.time = t.not_before + 0.01
    control.pump()
    assert t.state == TaskState.RUNNING
    assert control.log.events("task_requeued")[0].category == "worker_lost"
    assert control.metrics.counter("recovery.requeues").value == 1


def test_note_fault_is_logged_and_counted():
    port, control = make_control()
    add_worker(port, control, "wA")
    control.note_fault("wA", "crash")
    control.note_fault("wA", "transfer_corrupt", cache_name="obj")
    events = control.log.events("fault_injected")
    assert [(e.worker, e.category, e.file) for e in events] == [
        ("wA", "crash", None),
        ("wA", "transfer_corrupt", "obj"),
    ]
    assert control.metrics.counter("faults.injected").value == 2
