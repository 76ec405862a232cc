"""Resource specification and accounting.

Every task declares a fixed quantity of resources (cores, memory, disk,
gpus) which the worker enforces at execution time; the manager packs
tasks onto workers without overcommitting (paper §2.1).  The same
:class:`Resources` value type describes task requests, library
allocations, and worker capacities in both the real and simulated
runtimes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Resources", "ResourcePool", "ResourceExhausted"]


class ResourceExhausted(RuntimeError):
    """Raised when an allocation is requested that does not fit a pool."""


@dataclass(frozen=True, slots=True)
class Resources:
    """An immutable bundle of schedulable resources.

    ``memory`` and ``disk`` are in megabytes, matching the paper's units.
    Instances are valid dict keys and safe to share between threads.
    """

    cores: float = 1.0
    memory: int = 0
    disk: int = 0
    gpus: int = 0

    def __post_init__(self) -> None:
        if self.cores < 0 or self.memory < 0 or self.disk < 0 or self.gpus < 0:
            raise ValueError(f"resources must be non-negative: {self}")

    def __add__(self, other: "Resources") -> "Resources":
        return Resources(
            cores=self.cores + other.cores,
            memory=self.memory + other.memory,
            disk=self.disk + other.disk,
            gpus=self.gpus + other.gpus,
        )

    def __sub__(self, other: "Resources") -> "Resources":
        return Resources(
            cores=self.cores - other.cores,
            memory=self.memory - other.memory,
            disk=self.disk - other.disk,
            gpus=self.gpus - other.gpus,
        )

    def fits_within(self, capacity: "Resources") -> bool:
        """True if this request can be satisfied by ``capacity``."""
        return (
            self.cores <= capacity.cores
            and self.memory <= capacity.memory
            and self.disk <= capacity.disk
            and self.gpus <= capacity.gpus
        )

    def scaled(self, factor: float) -> "Resources":
        """Return a copy with every dimension multiplied by ``factor``.

        Used by the manager's retry-with-larger-allocation policy when a
        task exceeds its declared allocation (paper §2.1).
        """
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return Resources(
            cores=self.cores * factor,
            memory=int(self.memory * factor),
            disk=int(self.disk * factor),
            gpus=self.gpus,  # gpu counts do not fractionally scale
        )

    def exceeds(self, limit: "Resources") -> list[str]:
        """Return the names of dimensions in which ``self`` exceeds ``limit``."""
        over = []
        if self.cores > limit.cores:
            over.append("cores")
        if self.memory > limit.memory:
            over.append("memory")
        if self.disk > limit.disk:
            over.append("disk")
        if self.gpus > limit.gpus:
            over.append("gpus")
        return over

    def to_dict(self) -> dict:
        """Plain-dict form for wire messages and traces."""
        return {
            "cores": self.cores,
            "memory": self.memory,
            "disk": self.disk,
            "gpus": self.gpus,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Resources":
        """Inverse of :meth:`to_dict`; ignores unknown keys."""
        return cls(
            cores=d.get("cores", 1.0),
            memory=d.get("memory", 0),
            disk=d.get("disk", 0),
            gpus=d.get("gpus", 0),
        )


class ResourcePool:
    """Mutable allocation ledger over a fixed :class:`Resources` capacity.

    A worker owns one pool; the manager mirrors one pool per connected
    worker so placement decisions never overcommit.  The invariant
    ``allocated.fits_within(capacity)`` holds after every public call.

    The ledger is four running totals, one per dimension, added to and
    subtracted from in the order the requests come: the same arithmetic
    as folding the requests with ``+`` and ``-``, without building a
    :class:`Resources` per step.  ``allocated`` is built when read.
    """

    def __init__(self, capacity: Resources) -> None:
        self.capacity = capacity
        self._cores = self._memory = self._disk = self._gpus = 0
        self._holders: dict[str, Resources] = {}

    @property
    def allocated(self) -> Resources:
        """Resources currently allocated, summed over every holder."""
        return Resources(self._cores, self._memory, self._disk, self._gpus)

    def available(self) -> Resources:
        """Resources not currently allocated."""
        return self.capacity - self.allocated

    def can_fit(self, request: Resources) -> bool:
        """True if ``request`` would fit without overcommit."""
        c = self.capacity
        return (
            self._cores + request.cores <= c.cores
            and self._memory + request.memory <= c.memory
            and self._disk + request.disk <= c.disk
            and self._gpus + request.gpus <= c.gpus
        )

    def allocate(self, holder: str, request: Resources) -> None:
        """Reserve ``request`` under key ``holder`` (e.g. a task id).

        Raises :class:`ResourceExhausted` if the request does not fit and
        ``ValueError`` if the holder already holds an allocation.
        """
        if holder in self._holders:
            raise ValueError(f"holder {holder!r} already has an allocation")
        if not self.can_fit(request):
            raise ResourceExhausted(
                f"cannot allocate {request} (available {self.available()})"
            )
        self._holders[holder] = request
        self._cores += request.cores
        self._memory += request.memory
        self._disk += request.disk
        self._gpus += request.gpus

    def release(self, holder: str) -> Resources:
        """Release and return the allocation held by ``holder``.

        Raises ``KeyError`` for an unknown holder, and ``ValueError``
        (with the holder gone and the totals as they were) should float
        rounding take a total below zero.
        """
        request = self._holders.pop(holder)
        cores = self._cores - request.cores
        memory = self._memory - request.memory
        disk = self._disk - request.disk
        gpus = self._gpus - request.gpus
        if cores < 0 or memory < 0 or disk < 0 or gpus < 0:
            Resources(cores, memory, disk, gpus)  # raises the value type's error
        self._cores, self._memory, self._disk, self._gpus = cores, memory, disk, gpus
        return request

    def holders(self) -> dict[str, Resources]:
        """Snapshot of current holders (copy; safe to iterate)."""
        return dict(self._holders)

    def __len__(self) -> int:
        return len(self._holders)
