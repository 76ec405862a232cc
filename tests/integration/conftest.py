"""Fixtures for end-to-end tests of the real multi-process runtime."""

import dataclasses
import multiprocessing as mp
import threading
import time

import pytest

from repro.core.manager import Manager
from repro.core.policy import Policy

#: spawn avoids inheriting the manager's threads/locks into workers
_CTX = mp.get_context("spawn")
_POLICY_FIELDS = {f.name for f in dataclasses.fields(Policy)}


class EventWaiter:
    """Condition-based waits driven by the manager's transaction log.

    Attached as an :class:`~repro.core.events.EventLog` sink, so every
    emitted event immediately re-checks the waited-on condition — tests
    block on "the log shows X" instead of sleeping and polling.  The
    sink runs inline under the manager's state lock, so it only pings a
    ``threading.Event``; predicates are evaluated on the waiting thread
    with no waiter lock held (they may take the manager lock freely).

    A slow fallback re-check (``RECHECK``) covers conditions that can
    become true without an event — e.g. a heartbeat refreshing
    ``last_seen`` — so waits are event-fast but never event-blind.
    """

    RECHECK = 0.25

    def __init__(self, manager) -> None:
        self.manager = manager
        self._ping = threading.Event()
        manager.log.attach(lambda _event: self._ping.set())

    def wait_for(self, predicate, timeout=30.0, describe="condition"):
        """Block until ``predicate()`` is true; TimeoutError otherwise."""
        deadline = time.time() + timeout
        while True:
            self._ping.clear()
            if predicate():
                return
            remaining = deadline - time.time()
            if remaining <= 0:
                raise TimeoutError(f"timed out waiting for {describe}")
            self._ping.wait(min(remaining, self.RECHECK))

    def wait_event(self, kind, predicate=None, timeout=30.0):
        """Block until the log holds a ``kind`` event (matching, if given)."""

        def seen():
            return any(
                predicate is None or predicate(e)
                for e in self.manager.log.events(kind)
            )

        self.wait_for(seen, timeout=timeout, describe=f"event {kind!r}")

    def wait_task_state(self, task, state, timeout=30.0):
        """Block until a task reaches a state (woken by task events)."""
        self.wait_for(
            lambda: task.state == state,
            timeout=timeout,
            describe=f"task {task.task_id} state {state}",
        )


def _worker_main(
    host, port, workdir, cores, memory, disk, fault_config=None, reconnect=0.0
):
    from repro.worker.worker import Worker

    worker = Worker(
        host, port, workdir, cores=cores, memory=memory, disk=disk,
        task_timeout=120.0, fault_config=fault_config,
        reconnect_window=reconnect,
    )
    worker.run()


class Cluster:
    """A manager plus real worker processes on localhost.

    ``fault_configs`` (chaos runs) maps launch names ("w0", "w1", ...)
    to picklable :class:`repro.faults.real.WorkerFaultConfig` records
    handed to the matching worker process.
    """

    def __init__(
        self, tmp_path, n_workers=2, cores=4, memory=2000, disk=2000,
        fault_configs=None, reconnect=0.0, **mkw,
    ):
        # Policy fields among the keywords travel as the manager's policy
        knobs = {k: mkw.pop(k) for k in list(mkw) if k in _POLICY_FIELDS}
        self.manager = Manager(policy=Policy(**knobs), **mkw)
        self.events = EventWaiter(self.manager)
        self.tmp_path = tmp_path
        self.fault_configs = fault_configs or {}
        self.reconnect = reconnect
        self.procs = []
        for i in range(n_workers):
            self.start_worker(f"w{i}", cores=cores, memory=memory, disk=disk)
        self.wait_workers(n_workers)

    def start_worker(self, name, cores=4, memory=2000, disk=2000):
        workdir = str(self.tmp_path / f"worker-{name}")
        # not a daemon: workers must be able to fork library instances
        proc = _CTX.Process(
            target=_worker_main,
            args=(self.manager.host, self.manager.port, workdir, cores, memory, disk,
                  self.fault_configs.get(name), self.reconnect),
        )
        proc.start()
        self.procs.append(proc)
        return proc

    def wait_workers(self, count, timeout=30.0):
        def joined():
            with self.manager._lock:
                return len(self.manager.workers) >= count

        self.events.wait_for(
            joined, timeout=timeout, describe=f"{count} workers joined"
        )

    def stop(self):
        self.manager.close(shutdown_workers=True)
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)


@pytest.fixture()
def cluster(tmp_path):
    c = Cluster(tmp_path, n_workers=2)
    yield c
    c.stop()


@pytest.fixture()
def single_worker_cluster(tmp_path):
    c = Cluster(tmp_path, n_workers=1)
    yield c
    c.stop()
