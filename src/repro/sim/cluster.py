"""Simulated cluster: workers, the manager node, and data servers.

A :class:`SimCluster` owns the virtual-time engine, the bandwidth-shared
network, and the set of :class:`SimWorker` nodes.  Worker *caches
persist at the cluster level*, not per workflow run, which is what lets
a second workflow find a hot cache (paper Fig. 9): run two
:class:`~repro.sim.simmanager.SimManager` workflows against one cluster
and the worker-lifetime objects survive between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.files import CacheLevel
from repro.core.resources import ResourcePool, Resources
from repro.sim.engine import Simulation
from repro.sim.network import Network

__all__ = ["CacheObject", "SimWorker", "SimCluster", "MANAGER_NODE"]

#: network-node name of the manager (matches the transfer-table source key)
MANAGER_NODE = "@manager"

#: 10 Gb Ethernet, the paper's interconnect, in bytes/second
TEN_GBE = 1.25e9


@dataclass
class CacheObject:
    """One object in a worker's flat storage cache."""

    cache_name: str
    size: int
    level: CacheLevel
    last_used: float = 0.0


class SimWorker:
    """The simulator's model of one worker node.

    Owns a resource pool (cores/memory/disk/gpus for task packing) and a
    flat cache of objects keyed by cache name.
    """

    def __init__(
        self,
        worker_id: str,
        capacity: Resources,
        disk_capacity: int,
    ) -> None:
        self.worker_id = worker_id
        self.pool = ResourcePool(capacity)
        #: bytes of local storage available for the cache
        self.disk_capacity = disk_capacity
        self.cache: dict[str, CacheObject] = {}
        #: running total of ``cache``'s sizes, kept by insert/remove/clear
        self._cache_bytes = 0
        self.joined_at: Optional[float] = None
        self.connected = False

    def cache_bytes(self) -> int:
        """Total bytes currently cached."""
        return self._cache_bytes

    def has(self, cache_name: str) -> bool:
        """True if the object is present in the cache."""
        return cache_name in self.cache

    def insert(self, cache_name: str, size: int, level: CacheLevel, now: float) -> None:
        """Add an object to the cache (idempotent for identical objects)."""
        obj = self.cache.get(cache_name)
        if obj is None:
            self.cache[cache_name] = CacheObject(cache_name, size, level, now)
            self._cache_bytes += size
        else:
            obj.last_used = now
            # a later declaration may extend the lifetime of a shared object
            if level > obj.level:
                obj.level = level

    def touch(self, cache_name: str, now: float) -> None:
        """Record a use of a cached object (for LRU eviction)."""
        obj = self.cache.get(cache_name)
        if obj is not None:
            obj.last_used = now

    def remove(self, cache_name: str) -> Optional[CacheObject]:
        """Drop an object from the cache; returns it if present."""
        obj = self.cache.pop(cache_name, None)
        if obj is not None:
            self._cache_bytes -= obj.size
        return obj

    def clear_cache(self) -> None:
        """Lose every cached object (the worker left the cluster)."""
        self.cache.clear()
        self._cache_bytes = 0


class SimCluster:
    """A set of simulated workers joined by a bandwidth-shared network."""

    def __init__(
        self,
        manager_up_bps: float = TEN_GBE,
        manager_down_bps: Optional[float] = None,
        transfer_latency: float = 0.0,
    ) -> None:
        self.sim = Simulation()
        self.network = Network(self.sim, latency=transfer_latency)
        self.network.add_node(MANAGER_NODE, manager_up_bps, manager_down_bps)
        self.workers: dict[str, SimWorker] = {}
        self._counter = 0
        #: observers notified with (worker,) when a worker joins
        self.join_callbacks: list[Callable[[SimWorker], None]] = []
        #: observers notified with (worker,) when a worker departs
        self.leave_callbacks: list[Callable[[SimWorker], None]] = []

    def add_url_server(self, source: str, up_bps: float = TEN_GBE) -> None:
        """Register the remote data server that a transfer-table source
        key ``url:<host>`` names (once: a host serves many URLs)."""
        if source not in self.network.nodes:
            self.network.add_node(source, up_bps)

    def add_worker(
        self,
        cores: float = 4,
        memory: int = 16_000,
        disk: int = 100_000,
        gpus: int = 0,
        disk_capacity: Optional[int] = None,
        up_bps: float = TEN_GBE,
        down_bps: Optional[float] = None,
        at: float = 0.0,
        worker_id: Optional[str] = None,
    ) -> SimWorker:
        """Create a worker that joins the cluster at virtual time ``at``.

        ``disk`` is the schedulable task-disk resource in MB;
        ``disk_capacity`` is the cache capacity in bytes (defaults to
        ``disk`` MB converted to bytes).
        """
        self._counter += 1
        wid = worker_id or f"w{self._counter:04d}"
        if wid in self.workers:
            raise ValueError(f"duplicate worker id {wid}")
        capacity = Resources(cores=cores, memory=memory, disk=disk, gpus=gpus)
        worker = SimWorker(
            wid,
            capacity,
            disk_capacity if disk_capacity is not None else disk * 1_000_000,
        )
        self.workers[wid] = worker
        self.network.add_node(wid, up_bps, down_bps)
        self.sim.schedule_at(at, self._join, worker)
        return worker

    def add_workers(self, count: int, **kwargs) -> list[SimWorker]:
        """Convenience: add ``count`` identical workers."""
        return [self.add_worker(**kwargs) for _ in range(count)]

    def _join(self, worker: SimWorker) -> None:
        worker.connected = True
        worker.joined_at = self.sim.now
        for cb in list(self.join_callbacks):
            cb(worker)

    def remove_worker(self, worker_id: str, at: float = 0.0) -> None:
        """Schedule a worker's departure at virtual time ``at``.

        Models preemption on a shared cluster (paper §2.2: workers "may
        join and leave the system dynamically").  The worker's cache
        contents are lost; its node stays registered so in-flight model
        transfers drain harmlessly.
        """
        worker = self.workers[worker_id]
        self.sim.schedule_at(at, self._leave, worker)

    def _leave(self, worker: SimWorker) -> None:
        if not worker.connected:
            return
        worker.connected = False
        worker.clear_cache()
        for holder in list(worker.pool.holders()):
            worker.pool.release(holder)
        for cb in list(self.leave_callbacks):
            cb(worker)

    def connected_workers(self) -> list[SimWorker]:
        """Workers currently connected, in id order."""
        return [w for _, w in sorted(self.workers.items()) if w.connected]
