"""Chaos soak for manager crash/recovery in the simulated runtime.

A seeded :class:`FaultPlan` kills the *manager* mid-run.  The next
manager life over the same journal directory must restore the control
plane, re-adopt the replicas the (surviving) simulated workers still
hold, finish the workflow with outputs identical to an uninterrupted
run, and never re-execute a task whose outputs survived — all asserted
from the shared transaction log, which carries both lives as segments
of one file.
"""

from repro.core.files import CacheLevel, TempFile
from repro.core.journal import ControlPlaneJournal
from repro.core.task import Task, TaskState
from repro.faults import FaultPlan, SimFaultInjector
from repro.observe.txnlog import read_transactions
from repro.sim.cluster import SimCluster
from repro.sim.simmanager import SimManager

MB = 1_000_000
N_WORKERS = 3
N_STAGE = 6


def _cluster():
    cluster = SimCluster()
    for i in range(N_WORKERS):
        cluster.add_worker(cores=4, worker_id=f"w{i}")
    return cluster


def _build_workload(m):
    """Two-stage DAG: producers feed pairwise-joining consumers."""
    shared = m.declare_dataset("shared", MB)
    temps, tasks = [], []
    for i in range(N_STAGE):
        temp = m.declare_temp()
        # a per-producer dataset: each declare charges the tenant's byte
        # ledger, so the journal accumulates incremental tenant_bytes
        # records that compaction collapses to one total
        own = m.declare_dataset(f"in{i}", MB // 2)
        t = (
            Task(f"produce{i}")
            .add_input(shared, "d")
            .add_input(own, "own")
            .add_output(temp, "out")
        )
        # staggered durations: the after-tasks crash below lands while
        # later producers are genuinely in flight
        m.submit(t, duration=1.0 + 0.5 * i, output_sizes={"out": MB})
        temps.append(temp)
        tasks.append(t)
    for i in range(N_STAGE):
        t = (
            Task(f"consume{i}")
            .add_input(temps[i], "a")
            .add_input(temps[(i + 2) % N_STAGE], "b")
        )
        m.submit(t, duration=1.0)
        tasks.append(t)
    return tasks


def _fingerprint(m):
    """The workflow's observable outcome, independent of run-salted
    cache names and task ids: per command, terminal state and the
    sizes of every output object."""
    out = []
    for t in m.control.tasks.values():
        sizes = tuple(
            sorted(m.control.size_of(f.cache_name) for _, f in t.outputs)
        )
        out.append((t.command, t.state.name, sizes))
    return sorted(out)


def _run_clean(seed):
    m = SimManager(_cluster(), seed=seed)
    tasks = _build_workload(m)
    m.run()
    assert all(t.state == TaskState.DONE for t in tasks)
    return _fingerprint(m)


def _run_with_crash(seed, tmp_path):
    """Life 1 dies mid-run; life 2 recovers over the same journal."""
    journal_dir = str(tmp_path / "journal")
    txn = str(tmp_path / "txn.jsonl")
    cluster = _cluster()
    # tight snapshot cadence so compactions actually happen within this
    # small workload and the replay-cost bound below is exercised
    m1 = SimManager(
        cluster, seed=seed, journal_dir=journal_dir, txn_log_path=txn,
        journal_snapshot_every=8,
    )
    _build_workload(m1)
    plan = FaultPlan(seed=seed).crash_manager(after_tasks=3)
    SimFaultInjector(plan, m1)
    m1.run()  # drains once the crash mutes every callback
    assert m1._crashed
    done_before = sum(1 for t in m1.control.tasks.values() if t.is_done)
    assert 0 < done_before < 2 * N_STAGE  # genuinely mid-run

    m2 = SimManager(
        cluster, seed=seed, journal_dir=journal_dir, txn_log_path=txn,
        journal_snapshot_every=8, recovery_grace=5.0,
    )
    assert m2.recovered
    m2.run()
    return m1, m2, txn


def test_crashed_run_converges_to_the_uninterrupted_outcome(tmp_path):
    clean = _run_clean(11)
    _m1, m2, _txn = _run_with_crash(11, tmp_path)
    assert all(t.state == TaskState.DONE for t in m2.control.tasks.values())
    # same commands, same terminal states, same output object sizes —
    # the sim's notion of byte-identical outputs
    assert _fingerprint(m2) == clean


def test_survived_tasks_are_not_reexecuted(tmp_path):
    _m1, m2, txn = _run_with_crash(13, tmp_path)

    header, events = read_transactions(txn)
    assert header["segments"] == 2
    restart_at = next(
        i for i, e in enumerate(events) if e.kind == "manager_restart"
    )
    pre, post = events[:restart_at], events[restart_at:]

    # tasks that completed before the crash keep their outputs on the
    # surviving workers: the second life must not start them again
    survived = {
        e.task for e in pre if e.kind == "task_end" and e.category != "library"
    }
    restarted = {e.task for e in post if e.kind == "task_start"}
    assert survived and not (survived & restarted)
    # in-flight work died with the manager and does re-run
    started_pre = {
        e.task for e in pre if e.kind == "task_start" and e.category != "library"
    }
    assert (started_pre - survived) & restarted

    # the recovery lifecycle is first-class in the same log
    assert any(e.kind == "recovery_complete" for e in post)
    rejoined = [e for e in post if e.kind == "worker_rejoined"]
    assert len(rejoined) == N_WORKERS
    readopted = [e for e in post if e.kind == "replica_readopted"]
    assert readopted


def test_replay_cost_is_bounded_by_the_snapshot(tmp_path):
    _m1, m2, _txn = _run_with_crash(17, tmp_path)
    # recovery itself is redundant by design: m2's worker adoption
    # re-records replica grants the journal already held from life 1,
    # and the tight snapshot cadence compacts the duplicates away — so
    # a replay taken now reads strictly fewer records than were ever
    # appended, while losing no facts
    m2.journal.close()
    stats = ControlPlaneJournal(str(tmp_path / "journal")).last_replay_stats
    assert stats.snapshot_records > 0
    assert stats.replayed_records < stats.lifetime_records


def test_crash_recovery_is_deterministic_for_a_seed(tmp_path):
    _, m2a, _ = _run_with_crash(19, tmp_path / "a")
    _, m2b, _ = _run_with_crash(19, tmp_path / "b")
    assert _fingerprint(m2a) == _fingerprint(m2b)


def test_bystander_rejoin_does_not_end_the_grace_window_early(tmp_path):
    """A fresh empty worker registering first must not trigger
    regeneration of outputs whose holder is still reconnecting.

    Worker ids are minted per manager life, so the recovery window
    cannot match rejoiners to the journal's expected holders by id —
    it must wait until the awaited outputs are actually re-backed (or
    the grace deadline passes).
    """
    from repro.core.files import CacheLevel

    journal_dir = str(tmp_path / "journal")
    c1 = SimCluster()
    c1.add_worker(worker_id="w0")
    m1 = SimManager(c1, journal_dir=journal_dir)
    out = m1.declare_temp()
    t = Task("produce").add_output(out, "out")
    m1.submit(t, duration=1.0, output_sizes={"out": MB})
    m1.run(finalize=False)
    assert t.state == TaskState.DONE
    name = out.cache_name
    m1.crash()

    # life 2: an empty bystander connects immediately; the holder's
    # registration (same disk, new identity) arrives a moment later,
    # well inside the grace window
    c2 = SimCluster()
    c2.add_worker(worker_id="fresh0")
    m2 = SimManager(c2, journal_dir=journal_dir, recovery_grace=5.0)
    assert m2.recovered
    holder = c2.add_worker(worker_id="late0", at=1.0)
    holder.insert(name, MB, CacheLevel.WORKFLOW, 0.0)
    m2.sim.run()  # no workflow outstanding: drain the join events

    # the output was re-adopted from the late holder, not re-executed
    assert any(
        e.file == name and e.worker == "late0"
        for e in m2.log.events("replica_readopted")
    )
    assert not list(m2.log.events("file_regenerated"))
    assert set(m2.replicas.locate(name)) == {"late0"}


def test_cleanly_drained_worker_leaves_the_rejoin_expectation(tmp_path):
    """Regression for a worker-set-fixed-after-start assumption: a
    worker that *gracefully drained* before the manager crash must not
    linger in the journal's rejoin expectation set.  Its replicas were
    migrated to survivors while it departed, so recovery must neither
    wait out the grace window for it nor regenerate what it once held.
    """
    journal_dir = str(tmp_path / "journal")
    cluster = _cluster()
    m1 = SimManager(cluster, seed=23, journal_dir=journal_dir)
    tasks = _build_workload(m1)
    SimFaultInjector(FaultPlan(seed=23).drain("w0", at=0.5), m1)
    m1.run(finalize=False)
    assert all(t.state == TaskState.DONE for t in tasks)
    assert any(e.kind == "worker_drained" for e in m1.log.events())
    # the journal derives rejoin expectations from replica hints, and
    # the drain's departure pruned every hint naming w0
    assert "w0" not in m1.journal.known_workers()
    assert m1.journal.known_workers() <= {"w1", "w2"}
    m1.crash()

    # life 2 over the same journal: only the survivors come back, and
    # recovery settles without regenerating anything the drain migrated
    m2 = SimManager(
        cluster, seed=23, journal_dir=journal_dir, recovery_grace=5.0
    )
    assert m2.recovered
    m2.run()
    assert not list(m2.log.events("file_regenerated"))
    rejoined = {e.worker for e in m2.log.events("worker_rejoined")}
    assert "w0" not in rejoined


def test_a_collected_task_temp_is_neither_awaited_nor_regenerated(tmp_path):
    """Regression: a producer -> consumer chain ran through a
    ``TASK``-lifetime temp, which was collected when the consumer ended;
    then the manager crashed.  The collected temp is not lost: the
    journal must not hint it at its old holder, and the restarted life
    must close its rejoin window as the worker rejoins (not at its
    deadline) and must not re-run the producer."""
    journal_dir = str(tmp_path / "journal")
    cluster = SimCluster()
    cluster.add_worker(cores=4, worker_id="w0")
    m1 = SimManager(cluster, seed=1, journal_dir=journal_dir)
    temp = TempFile(CacheLevel.TASK)
    m1.namer.assign(temp)
    m1.control.declare(temp)
    produce = Task("produce").add_output(temp, "out")
    m1.submit(produce, duration=1.0, output_sizes={"out": MB})
    consume = Task("consume").add_input(temp, "in")
    m1.submit(consume, duration=1.0)
    m1.run(finalize=False)
    assert produce.state == consume.state == TaskState.DONE
    assert not m1.replicas.locate(temp.cache_name)  # collected
    hinted = temp.cache_name in m1.journal.replica_hints
    m1.crash()

    m2 = SimManager(cluster, seed=1, journal_dir=journal_dir, recovery_grace=5.0)
    assert m2.recovered
    restarted_at = m2.sim.now
    m2.sim.run()  # no workflow outstanding: drain the rejoin
    (closed,) = m2.log.events("recovery_complete")
    regenerated = m2.log.count("file_regenerated")
    assert (hinted, regenerated, closed.time) == (False, 0, restarted_at)


def test_a_hint_no_rejoiner_backs_is_dropped_when_the_window_closes(tmp_path):
    """Worker ids are minted per manager life: once the rejoin window
    closed, the journal hints a re-adopted output at its new holder
    only, so the next restart does not expect the old identity too."""
    journal_dir = str(tmp_path / "journal")
    c1 = SimCluster()
    c1.add_worker(worker_id="w0")
    m1 = SimManager(c1, journal_dir=journal_dir)
    out = m1.declare_temp()
    m1.submit(Task("produce").add_output(out, "out"), duration=1.0,
              output_sizes={"out": MB})
    m1.run(finalize=False)
    name = out.cache_name
    assert m1.journal.replica_hints[name] == {"w0": MB}
    m1.crash()

    c2 = SimCluster()
    holder = c2.add_worker(worker_id="late0")
    holder.insert(name, MB, CacheLevel.WORKFLOW, 0.0)
    m2 = SimManager(c2, journal_dir=journal_dir, recovery_grace=5.0)
    m2.sim.run()
    assert m2.log.count("recovery_complete") == 1
    assert m2.journal.replica_hints == {name: {"late0": MB}}
    assert m2.journal.known_workers() == {"late0"}
