"""Simulated TaskVine manager: discrete-event adapter over the control plane.

:class:`SimManager` mirrors the real manager's API (declare files,
submit tasks, install libraries, run) but executes against a
:class:`~repro.sim.cluster.SimCluster`.  Crucially it drives the *same*
policy engine as the real runtime — the shared
:class:`~repro.core.control_plane.ControlPlane` over
:class:`~repro.core.scheduler.Scheduler`,
:class:`~repro.core.replica_table.ReplicaTable`,
:class:`~repro.core.transfer_table.TransferTable` and
:mod:`repro.core.gc` — so the figure benchmarks exercise exactly the
policies the paper evaluates.  This module only provides virtual-time
*mechanisms* as a :class:`~repro.core.control_plane.RuntimePort`:
simulated byte movement over :class:`~repro.sim.network.SimNetwork`,
scheduled execution/staging/startup delays, and simulated cache
insertion with capacity eviction.  Any behavioural change belongs in
``control_plane.py``, never here.

Simulation-specific file declarations carry explicit sizes (and stage
times for mini tasks) instead of real content; tasks carry explicit
durations.  Everything else — placement, peer transfer selection,
per-source concurrency limits, caching, eviction, garbage collection,
retry/replication/regeneration — is the production logic.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.control_plane import (
    NO_SOURCE,
    ControlPlane,
    LibraryState,
    StagingJob,
)
from repro.core.events import EventLog, makespan
from repro.core.files import (
    CacheLevel,
    File,
    MiniTaskFile,
    RetrievedFile,
    TempFile,
    URLFile,
)
from repro.core.gc import CacheEntryInfo, plan_eviction
from repro.core.naming import Namer
from repro.core.policy import Policy
from repro.core.resources import Resources
from repro.core.task import MiniTask, Task, TaskResult, TaskState
from repro.core.transfer_table import MANAGER_SOURCE, Transfer
from repro.observe.txnlog import TransactionLogWriter
from repro.sim.cluster import MANAGER_NODE, SimCluster, SimWorker
from repro.util.hashing import hash_bytes

__all__ = ["SimManager", "SimLibrary", "SimRunStats", "NO_SOURCE"]


class SimLibrary(LibraryState):
    """Control-plane library state plus the simulated startup delay."""

    def __init__(
        self,
        name: str,
        env_files: Sequence[File] = (),
        resources: Optional[Resources] = None,
        startup_time: float = 1.0,
        slots: int = 1,
    ) -> None:
        super().__init__(name, env_files, resources, slots)
        self.startup_time = startup_time

    @property
    def deployments(self) -> dict[str, str]:
        """Worker id -> deployment phase (alias of the shared state)."""
        return self.state


@dataclass
class SimRunStats:
    """Outcome of one simulated workflow run."""

    started: float
    finished: float
    tasks_done: int
    log: EventLog
    #: completed transfer counts by source kind: "peer", "manager", "url"
    transfer_counts: dict[str, int]
    bytes_by_source: dict[str, float]
    evictions: int

    @property
    def makespan(self) -> float:
        """Virtual seconds from run start to workflow completion."""
        return self.finished - self.started


class SimManager:
    """One workflow run executing on a simulated cluster."""

    def __init__(
        self,
        cluster: SimCluster,
        policy: Policy = Policy(),
        seed: int = 0,
        run_nonce: Optional[str] = None,
        max_task_retries: int = 3,
        txn_log_path: Optional[str] = None,
        memo_store=None,
        journal_dir: Optional[str] = None,
        journal_snapshot_every: int = 1024,
        recovery_grace: float = 10.0,
    ) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.network = cluster.network
        self.namer = Namer(seed=seed, run_nonce=run_nonce)
        # stable pseudo-headers: URL content never changes inside a sim
        def _sim_headers(url: str) -> dict:
            return {"ETag": f"sim:{url}"}

        self.namer.header_fetcher = _sim_headers
        #: persistent memoization store shared across simulated runs —
        #: an existing ``MemoStore`` (several SimManagers over one
        #: cluster); validation in the sim is replica-backed only (no
        #: real bytes exist to retain)
        self.memo_store = memo_store
        #: durable write-ahead journal shared with the real runtime; a
        #: new SimManager over the same directory models a restarted
        #: manager process recovering mid-workflow
        self.journal = None
        if journal_dir is not None:
            from repro.core.journal import ControlPlaneJournal

            self.journal = ControlPlaneJournal(
                journal_dir, snapshot_every=journal_snapshot_every
            )
        # a simulated run is an experiment: a task out of worker-loss
        # retries aborts it loudly instead of failing quietly
        policy = dataclasses.replace(
            policy, loss_retries=max_task_retries, strict_loss=True
        )
        self.control = ControlPlane(
            self, policy, seed=seed, memo=memo_store, journal=self.journal
        )
        #: installed by :class:`repro.faults.sim.SimFaultInjector`; when
        #: set, every outbound transfer asks it for an injected verdict
        self.fault_injector = None
        #: same telemetry artifact as the real manager's, in virtual time
        self._txn_writer: Optional[TransactionLogWriter] = None
        if txn_log_path is not None:
            # a recovering manager appends a new @header segment so the
            # crashed life's events stay in place (same as the real one)
            self._txn_writer = TransactionLogWriter(
                txn_log_path,
                runtime="sim",
                resume=self.journal is not None and self.journal.recovered,
            )
            self.control.log.attach(self._txn_writer)

        self.evictions = 0
        self._pump_scheduled = False
        #: future arrivals a streaming driver has scheduled but not yet
        #: submitted; run() must not mistake an arrival gap (everything
        #: submitted so far done, more on the way) for completion
        self.pending_arrivals = 0
        #: set by :meth:`crash`: no callback of this manager life runs
        #: once it is (:meth:`_run`)
        self._crashed = False
        #: True when this life restored state journaled by a prior one
        self.recovered = self.control.recover(recovery_grace)
        if self.journal is not None:
            self.journal.record_meta(project="sim", policy=policy.asdict())

        # adopt pre-existing worker-level cache contents (hot cache, Fig 9)
        for worker in cluster.workers.values():
            if worker.connected:
                self._join(worker)
            else:
                for name, size in self._adoptable_cache(worker):
                    self.control.adopt_replica(worker.worker_id, name, size)
        cluster.join_callbacks.append(self._join)
        cluster.leave_callbacks.append(self._on_worker_leave)

    # -- control-plane state views (single source of truth) --------------

    @property
    def registry(self):
        return self.control.registry

    @property
    def replicas(self):
        return self.control.replicas

    @property
    def transfers(self):
        return self.control.transfers

    @property
    def scheduler(self):
        return self.control.scheduler

    @property
    def log(self):
        return self.control.log

    @property
    def metrics(self):
        return self.control.metrics

    @property
    def tasks(self):
        return self.control.tasks

    @property
    def libraries(self):
        return self.control.libraries

    @property
    def tasks_requeued(self) -> int:
        """Re-runs of any cause: requeued attempts and regenerations."""
        log = self.control.log
        return log.count("task_requeued") + log.count("file_regenerated")

    # ------------------------------------------------------------------
    # RuntimePort: virtual-time mechanisms behind the control plane
    # ------------------------------------------------------------------

    def now(self) -> float:
        return self.sim.now

    def schedule(self, delay: float, fn, *args):
        """Run ``fn(*args)`` after ``delay`` virtual seconds as a
        callback of this manager life (see :meth:`_run`)."""
        return self.sim.schedule(delay, self._run, fn, *args)

    def _run(self, fn, *args) -> None:
        """Every callback of this manager life — scheduled, or fired by
        the network — arrives through here; a crashed life hears none
        (its worker finished, its bytes landed, but no manager was
        alive to be told: the restarted life starts over from READY)."""
        if not self._crashed:
            fn(*args)

    def request_pump(self) -> None:
        """Coalesce pump requests into one zero-delay event."""
        if not self._pump_scheduled:
            self._pump_scheduled = True
            self.schedule(0.0, self._fire_coalesced_pump)

    def _fire_coalesced_pump(self) -> None:
        self._pump_scheduled = False
        self.control.pump()

    def schedule_pump(self, delay: float) -> None:
        """Wake the control plane after ``delay`` virtual seconds."""
        self.schedule(max(0.0, delay), self.request_pump)

    def _start_network_transfer(self, record: Transfer) -> None:
        if record.source not in self.network.nodes:
            raise RuntimeError(f"unknown transfer source {record.source!r}")
        verdict = (
            self.fault_injector.transfer_verdict(record)
            if self.fault_injector is not None
            else None
        )
        if verdict is None:
            self.network.start(
                record.source,
                record.dest_worker,
                record.size,
                lambda _t: self._run(
                    self.control.on_transfer_complete, record.transfer_id
                ),
            )
            return
        mode, fraction = verdict
        if mode == "corrupt":
            # every byte flows, but arrives damaged: checksum
            # verification at the destination rejects the object
            self.network.start(
                record.source,
                record.dest_worker,
                record.size,
                lambda _t: self._run(self._transfer_faulted, record, True),
            )
        else:
            # the connection dies partway: only a fraction of the bytes
            # occupy the link before the failure surfaces
            self.network.start(
                record.source,
                record.dest_worker,
                record.size * fraction,
                lambda _t: self._run(self._transfer_faulted, record, False),
            )

    def _transfer_faulted(self, record: Transfer, corrupt: bool) -> None:
        try:
            self.transfers.get(record.transfer_id)
        except KeyError:
            # the transfer died with its endpoint (e.g. the destination
            # crashed mid-flight) before the injected fault could land —
            # recovery already ran, so there is no fault to record
            return
        self.control.note_fault(
            record.dest_worker,
            "transfer_corrupt" if corrupt else "transfer_fail",
            record.cache_name,
        )
        self.control.on_cache_invalid(
            record.dest_worker,
            record.cache_name,
            record.transfer_id,
            reason="injected corrupt transfer" if corrupt else "injected transfer failure",
            corrupt=corrupt,
        )

    def push_object(self, record: Transfer, level: CacheLevel) -> None:
        self._start_network_transfer(record)  # the manager is a network node

    def send_fetch(self, record: Transfer, level: CacheLevel) -> None:
        self._start_network_transfer(record)

    def run_minitask(self, job: StagingJob) -> None:
        self.schedule(
            job.file.stage_time, self.control.on_transfer_complete, job.transfer_id
        )

    def start_task(self, task: Task) -> None:
        worker = self.cluster.workers[task.worker_id]
        for name in task.input_cache_names():
            worker.touch(name, self.sim.now)
        task._sim_finish_event = self.schedule(  # type: ignore[attr-defined]
            task.sim_duration, self._finish_execution, task
        )

    def cancel_task(self, task: Task) -> None:
        event = getattr(task, "_sim_finish_event", None)
        if event is not None:
            event.cancel()

    def launch_library(self, lib: LibraryState, worker_id: str) -> None:
        assert isinstance(lib, SimLibrary)
        # the control plane ignores stale reports (worker left meanwhile)
        self.schedule(
            lib.startup_time, self.control.on_library_ready, worker_id, lib.name
        )

    def store_replica(
        self, worker_id: str, cache_name: str, size: int, level: CacheLevel
    ) -> None:
        """Insert into the simulated cache, evicting under disk pressure."""
        worker = self.cluster.workers[worker_id]
        overflow = worker.cache_bytes() + size - worker.disk_capacity
        if overflow > 0:
            pinned = self.control.pinned_at(worker_id)
            entries = [
                CacheEntryInfo(o.cache_name, o.size, o.level, o.last_used)
                for o in worker.cache.values()
            ]
            for victim in plan_eviction(entries, overflow, pinned):
                worker.remove(victim)
                self.control.replica_evicted(worker_id, victim)
                self.evictions += 1
        worker.insert(cache_name, size, level, self.sim.now)

    def delete_replica(self, worker_id: str, cache_names: list[str]) -> None:
        worker = self.cluster.workers.get(worker_id)
        if worker is not None:
            for name in cache_names:
                worker.remove(name)

    def deliver(self, task: Task, ref) -> None:
        pass  # applications read task state directly after run()

    def memo_persist(self, task: Task, merkle: str, outputs) -> None:
        pass  # no real bytes exist to retain: entries stay replica-backed

    def decode_value(self, task: Task, payload: bytes, result=None) -> bool:
        return True  # simulated tasks carry no values

    def ask_holder(self, worker_id: str, cache_name: str) -> None:
        self.network.start(
            worker_id,
            MANAGER_NODE,
            self.control.size_of(cache_name),
            # no real bytes exist here: the plane accounts the declared size
            lambda _t: self._run(self.control.fetch_reply, worker_id, cache_name, b""),
        )

    # ------------------------------------------------------------------
    # declarations
    # ------------------------------------------------------------------

    def declare_dataset(
        self,
        key: str,
        size: int,
        cache: "CacheLevel | str" = CacheLevel.WORKFLOW,
        source: str = MANAGER_SOURCE,
    ) -> File:
        """Declare a dataset of ``size`` bytes served by ``source``.

        ``key`` stands in for content: worker-lifetime datasets with the
        same key get the same content-addressable name across runs.
        """
        f = File(cache)
        if f.cache_level == CacheLevel.WORKER:
            f.cache_name = f"file-md5-{hash_bytes(key.encode())}"
        else:
            self.namer.assign(f)
        f.size = size
        self.control.declare(f, size, source)
        return f

    def declare_url(
        self,
        url: str,
        size: int,
        cache: "CacheLevel | str" = CacheLevel.WORKFLOW,
        server_bps: float = 1.25e9,
    ) -> URLFile:
        """Declare a remote URL of ``size`` bytes; registers its server node."""
        f = URLFile(url, cache)
        self.namer.assign(f)
        f.size = size
        self.control.declare(f, size)
        self.cluster.add_url_server(f.source, up_bps=server_bps)
        return f

    def declare_minitask(
        self,
        mini: MiniTask,
        output_size: int,
        stage_time: float,
        cache: "CacheLevel | str" = CacheLevel.WORKFLOW,
    ) -> MiniTaskFile:
        """Wrap ``mini`` as a file materialized on demand at workers.

        ``stage_time`` is the virtual seconds the transformation takes
        (unpacking, recompiling, ...); ``output_size`` the product size.
        """
        f = MiniTaskFile(mini, cache)
        self.namer.assign(f)
        f.size = output_size
        f.stage_time = stage_time
        self.control.declare(f, output_size)
        return f

    def declare_untar(
        self,
        tarball: File,
        unpacked_size: int,
        stage_time: float,
        cache: "CacheLevel | str" = CacheLevel.WORKFLOW,
    ) -> MiniTaskFile:
        """The built-in unpack mini task (paper Fig. 3 ``declare_untar``)."""
        # the command must not embed per-run identifiers: the spec hash
        # has to be stable across workflow runs for worker-level caching
        mini = MiniTask("tar -xf input.tar.gz").set_output_name("unpacked")
        mini.add_input(tarball, "input.tar.gz")
        return self.declare_minitask(mini, unpacked_size, stage_time, cache)

    def declare_temp(self, size: int = 0) -> TempFile:
        """Declare an ephemeral in-cluster file (paper §2.3 TempFile)."""
        f = TempFile()
        self.namer.assign(f)
        f.size = size
        self.control.declare(f, size)
        return f

    def declare_output(
        self, size: int = 0, bring_back: bool = True, keep_at_worker: bool = False
    ) -> File:
        """Declare a task output retrieved to the manager on completion.

        This is the shared-storage mode of Fig. 13a: every producing
        task's result travels back over the manager's downlink, and —
        unless ``keep_at_worker`` — the worker copy is dropped, so any
        downstream consumer must pull the data from the manager again
        (the round-trip TaskVine's TempFiles eliminate).
        """
        f = RetrievedFile(CacheLevel.WORKFLOW, bring_back, keep_at_worker)
        self.namer.assign(f)
        f.size = size
        self.control.declare(f, size, NO_SOURCE)
        return f

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(
        self,
        task: Task,
        duration: float,
        output_sizes: Optional[dict[str, int]] = None,
    ) -> Task:
        """Submit a task that will execute for ``duration`` virtual seconds.

        ``output_sizes`` maps sandbox output names to produced sizes,
        overriding any size given at declaration time.
        """
        task.sim_duration = float(duration)
        task.sim_output_sizes = dict(output_sizes or {})
        self.control.submit(task, self.namer)
        return task

    # -- libraries -----------------------------------------------------

    def create_library(
        self,
        name: str,
        env_files: Sequence[File] = (),
        resources: Resources = Resources(cores=1),
        startup_time: float = 1.0,
        slots: int = 1,
    ) -> SimLibrary:
        """Define a library (serverless host) for later installation."""
        if name in self.control.libraries:
            raise ValueError(f"library {name!r} already created")
        lib = SimLibrary(
            name=name,
            env_files=list(env_files),
            resources=resources,
            startup_time=startup_time,
            slots=slots,
        )
        self.control.libraries[name] = lib
        return lib

    def install_library(self, name: str) -> None:
        """Begin deploying the library to every (current and future) worker."""
        self.control.install_library(name)

    # ------------------------------------------------------------------
    # run driver
    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None, finalize: bool = True) -> SimRunStats:
        """Execute until every submitted task completes; return statistics."""
        started = self.sim.now
        self.control.pump()
        if not self._workflow_done():
            # (the engine tests ``stop_when`` only after a callback: on a
            # finished workflow it would run one stray event first)
            self.sim.run(until=until, stop_when=self._workflow_done)
        if self._crashed:
            # an injected manager crash muted every callback and let the
            # event queue drain: not a stall, just this life's end — the
            # journal is what it leaves behind for the next one
            return SimRunStats(
                started=started,
                finished=self.sim.now,
                tasks_done=self.control.done_count,
                log=self.control.log,
                transfer_counts=dict(self.control.transfer_counts),
                bytes_by_source=dict(self.control.bytes_by_source),
                evictions=self.evictions,
            )
        if not self._workflow_done():
            raise RuntimeError(
                f"workflow stalled: {len(self.control._ready)} ready, "
                f"{len(self.control._dispatched)} dispatched "
                f"({len(self.control._deferred_on)} inputs waiting on source "
                f"capacity), {len(self.control._running)} running, "
                f"{len(self.control._finishing)} awaiting retrieval "
                f"at t={self.sim.now:.1f}"
            )
        finished = self.sim.now
        if finalize:
            self.finalize()
        return SimRunStats(
            started=started,
            finished=finished,
            tasks_done=self.control.done_count,
            log=self.control.log,
            transfer_counts=dict(self.control.transfer_counts),
            bytes_by_source=dict(self.control.bytes_by_source),
            evictions=self.evictions,
        )

    def cancel(self, task: Task) -> bool:
        """Cancel a submitted task; returns False if already terminal."""
        return self.control.cancel(task)

    def _workflow_done(self) -> bool:
        return (
            self.control.idle()
            and not self.pending_arrivals
            and not self.control.draining
        )

    def finalize(self) -> None:
        """End-of-workflow cleanup: stop libraries, collect garbage, and
        stop hearing the cluster."""
        if self.control.closed:
            return
        self.control.end_workflow()
        self._detach()
        if self._txn_writer is not None:
            self._txn_writer.close()

    # ------------------------------------------------------------------
    # execution mechanism
    # ------------------------------------------------------------------

    def _finish_execution(self, task: Task) -> None:
        if task.state != TaskState.RUNNING:
            return  # stale completion: the task was requeued after a loss
        # a simulated worker announces nothing: the outputs enter its
        # cache, at their final sizes, as the attempt is accepted
        size_of = self.control.size_of
        produced = [
            (f.cache_name, task.sim_output_sizes.get(sandbox_name, size_of(f.cache_name)))
            for sandbox_name, f in task.outputs
        ]
        self.control.attempt_ended(
            task.worker_id, task.task_id, TaskResult(exit_code=0), produced=produced
        )

    # -- on-demand result fetch plane -------------------------------------

    def fetch_result(self, cache_name: str, on_done=None) -> None:
        """Pull a result payload back to the manager on demand.

        Rides the control plane's fetch plane, exactly as the real
        manager's by-reference resolution does: bytes stay at workers
        until a fetch dereferences them.  ``on_done`` is called with the
        serving worker id, or None when every source is exhausted.
        """
        self.control.fetch(
            cache_name, lambda wid, _payload: on_done(wid) if on_done else None
        )

    # -- worker membership ------------------------------------------------

    def finish_drain(self, worker_id: str) -> None:
        """RuntimePort drain hook: the control plane migrated everything
        off this worker, so the graceful departure can now complete.

        Deferring the actual removal to here (rather than leaving at
        drain-announce time) is the point of the protocol: the cluster
        ``_leave`` clears the worker's cache, which until this moment
        was the migration *source*.
        """
        self.cluster.remove_worker(worker_id, at=self.sim.now)

    @staticmethod
    def _worker_level_cache(worker: SimWorker) -> list[tuple[str, int]]:
        """Pre-existing worker-lifetime cache entries to adopt."""
        return [
            (obj.cache_name, obj.size)
            for obj in worker.cache.values()
            if obj.level == CacheLevel.WORKER
        ]

    def _adoptable_cache(self, worker: SimWorker) -> list[tuple[str, int]]:
        """Cache entries a (re)joining worker announces.

        Normally only worker-lifetime objects survive across manager
        lives; during a recovery grace window *everything* the worker
        still holds is announced — workflow-level replicas written by
        the crashed life are exactly what re-adoption must find.
        """
        if self.control._recovering:
            return [(obj.cache_name, obj.size) for obj in worker.cache.values()]
        return self._worker_level_cache(worker)

    def _join(self, worker: SimWorker) -> None:
        self.control.worker_joined(
            worker.worker_id, worker.pool, cached=self._adoptable_cache(worker)
        )

    def _on_worker_leave(self, worker: SimWorker) -> None:
        self.control.worker_left(worker.worker_id)

    def _detach(self) -> None:
        """Stop hearing the cluster's joins and leaves: a life that
        ended (finalized or crashed) is told of no more membership, and
        the cluster keeps no reference to it."""
        for callbacks, cb in (
            (self.cluster.join_callbacks, self._join),
            (self.cluster.leave_callbacks, self._on_worker_leave),
        ):
            try:
                callbacks.remove(cb)
            except ValueError:
                pass

    # -- crash / restart ---------------------------------------------------

    def crash(self) -> None:
        """Model this manager process dying abruptly (``kill -9``).

        No callback of this life runs any more (:meth:`_run`), cluster
        membership callbacks are detached, and the journal and
        transaction-log handles are dropped with no graceful
        finalization — leaving exactly the on-disk state a restarted
        :class:`SimManager` over the same ``journal_dir`` must recover
        from.  Workers and their caches survive (they are cluster
        state, not manager state).
        """
        self._crashed = True
        self._detach()
        # the allocation ledgers were this manager's view of worker
        # capacity; the tasks behind them die unheard (their completions
        # are discarded above), so the next life sees full capacity —
        # exactly as a real worker's fresh registration would report
        for worker in self.cluster.workers.values():
            for holder in worker.pool.holders():
                worker.pool.release(holder)
        if self.journal is not None:
            self.journal.close()
        if self._txn_writer is not None:
            self._txn_writer.close()

    # -- reporting -------------------------------------------------------

    def makespan(self) -> float:
        """Time of the last task completion in this run's log."""
        return makespan(self.control.log)
