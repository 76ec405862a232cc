"""Current Transfer Table: supervision of in-flight data movement.

Every transfer the manager schedules is recorded here with an id that
the worker echoes back in its ``cache-update`` message (paper §3.3).
The table lets the scheduler observe how many concurrent connections
each *source* (a worker, the manager itself, or a remote URL host) is
serving, which is what enables the per-source concurrency limits that
prevent network hotspots (paper Fig. 11).

Saturation is tracked *incrementally*: a source enters ``_saturated``
when ``begin`` takes its last slot and leaves it when ``complete``
frees one, so :meth:`source_available` and
:meth:`sources_with_capacity` are set lookups — the transfer-planning
hot path never recomputes ``limit_for``/``source_load`` per input.

Transfer ids come from a counter owned by *this* table (not a module
global): every manager in a process sees the same ``x1, x2, …``
stream, which the fixed-seed bit-for-bit chaos-replay guarantee
depends on.
"""

from __future__ import annotations

import itertools
import urllib.parse
from dataclasses import dataclass
from typing import Iterable, Optional

__all__ = [
    "Transfer",
    "TransferTable",
    "MANAGER_SOURCE",
    "MINITASK_SOURCE",
    "NO_SOURCE",
    "source_kind",
    "url_source",
]

#: pseudo-source id for transfers served by the manager process
MANAGER_SOURCE = "@manager"
#: pseudo-source id for files materialized by a mini task at the worker
MINITASK_SOURCE = "@minitask"
#: source marker of files that only ever exist at workers (temps): no
#: transfer is ever planned from it
NO_SOURCE = "@none"


def source_kind(source: str) -> str:
    """Classify a transfer source key for accounting and figures."""
    if source == MANAGER_SOURCE:
        return "manager"
    if source.startswith("url:"):
        return "url"
    if source == MINITASK_SOURCE:
        return "stage"
    return "peer"


def url_source(url: str) -> str:
    """The source key of the host serving ``url`` — what the per-source
    limit counts against; ``file://`` URLs share the key ``url:localfs``."""
    return f"url:{urllib.parse.urlparse(url).netloc or 'localfs'}"


@dataclass(frozen=True, slots=True)
class Transfer:
    """One scheduled transfer of a cache object to a worker."""

    transfer_id: str
    cache_name: str
    #: worker id, ``MANAGER_SOURCE``, or a URL host key
    source: str
    dest_worker: str
    size: int
    started: float


class TransferTable:
    """Ledger of in-flight transfers with per-source concurrency limits.

    ``worker_limit`` applies to each worker acting as a source and
    ``source_limit`` to each "fixed" source (manager or URL host); both
    are configurable by the user (paper §3.3) and fixed for the table's
    life.  ``None`` disables the corresponding limit, which is exactly
    the unsupervised mode of Fig. 11b.
    """

    def __init__(
        self,
        worker_limit: Optional[int] = 3,
        source_limit: Optional[int] = 100,
    ) -> None:
        self._worker_limit = worker_limit
        self._source_limit = source_limit
        self._by_id: dict[str, Transfer] = {}
        self._load_by_source: dict[str, int] = {}
        #: in-flight count per :func:`source_kind` (a kind once seen
        #: stays, at zero), and the most each ever had at once
        self._load_by_kind: dict[str, int] = {}
        self._peak_by_kind: dict[str, int] = {}
        #: the most transfers other than mini-task stagings ever in
        #: flight at once (see :meth:`moving`)
        self.peak_moving = 0
        self._inbound: dict[tuple[str, str], str] = {}
        #: sources currently at (or over) their concurrency limit
        self._saturated: set[str] = set()
        self._ids = itertools.count(1)

    # -- limits ---------------------------------------------------------

    @property
    def worker_limit(self) -> Optional[int]:
        """Concurrency limit for workers acting as transfer sources."""
        return self._worker_limit

    @property
    def source_limit(self) -> Optional[int]:
        """Concurrency limit for fixed sources (manager, URL hosts)."""
        return self._source_limit

    def _any_zero_limit(self) -> bool:
        """True when some limit is ≤ 0 (sources saturated at zero load)."""
        return (self._worker_limit is not None and self._worker_limit <= 0) or (
            self._source_limit is not None and self._source_limit <= 0
        )

    def _computed_available(self, source: str) -> bool:
        limit = self.limit_for(source)
        return limit is None or self._load_by_source.get(source, 0) < limit

    def limit_for(self, source: str) -> Optional[int]:
        """The concurrency limit that applies to ``source``."""
        if source == MANAGER_SOURCE or source.startswith("url:"):
            return self._source_limit
        return self._worker_limit

    def source_load(self, source: str) -> int:
        """Transfers currently being served by ``source``."""
        return self._load_by_source.get(source, 0)

    def kind_level(self, kind: str) -> tuple[int, int]:
        """Transfers of one source kind in flight now, and the most there
        ever were at once."""
        return self._load_by_kind.get(kind, 0), self._peak_by_kind.get(kind, 0)

    def moving(self) -> int:
        """Transfers in flight that move bytes to a worker: every one but
        the mini-task stagings (whose object is made where it lands)."""
        return len(self._by_id) - self._load_by_kind.get("stage", 0)

    def source_available(self, source: str) -> bool:
        """True if ``source`` may serve one more transfer — O(1).

        A ≤0 limit saturates its sources even at zero load (they never
        appear in the load-driven set), so that degenerate config takes
        the arithmetic path; every normal config is one set lookup.
        """
        if source in self._saturated:
            return False
        if self._any_zero_limit():
            return self._computed_available(source)
        return True

    def sources_with_capacity(self, sources: Iterable[str]) -> list[str]:
        """Filter ``sources`` down to those under their limit — O(1) each."""
        if self._any_zero_limit():
            return [s for s in sources if self._computed_available(s)]
        sat = self._saturated
        return [s for s in sources if s not in sat]

    # -- lifecycle --------------------------------------------------------

    def begin(
        self,
        cache_name: str,
        source: str,
        dest_worker: str,
        size: int,
        now: float = 0.0,
    ) -> Transfer:
        """Record a newly scheduled transfer and return its record.

        Raises ``RuntimeError`` if an identical (file, destination)
        transfer is already in flight — the scheduler must never request
        the same object twice for one worker.
        """
        key = (cache_name, dest_worker)
        if key in self._inbound:
            raise RuntimeError(
                f"duplicate transfer of {cache_name} to {dest_worker} already in flight"
            )
        t = Transfer(
            transfer_id=f"x{next(self._ids)}",
            cache_name=cache_name,
            source=source,
            dest_worker=dest_worker,
            size=size,
            started=now,
        )
        self._by_id[t.transfer_id] = t
        self._load_by_source[source] = self._load_by_source.get(source, 0) + 1
        kind = source_kind(source)
        load = self._load_by_kind[kind] = self._load_by_kind.get(kind, 0) + 1
        # the one place in-flight counts rise: their peaks are kept here
        if load > self._peak_by_kind.get(kind, 0):
            self._peak_by_kind[kind] = load
        if kind != "stage":
            self.peak_moving = max(self.peak_moving, self.moving())
        if not self._computed_available(source):
            self._saturated.add(source)
        self._inbound[key] = t.transfer_id
        return t

    def complete(self, transfer_id: str) -> Transfer:
        """Remove a finished (or failed) transfer and return its record."""
        t = self._by_id.pop(transfer_id)
        load = self._load_by_source.get(t.source, 0) - 1
        if load > 0:
            self._load_by_source[t.source] = load
        else:
            self._load_by_source.pop(t.source, None)
        self._load_by_kind[source_kind(t.source)] -= 1
        if t.source in self._saturated and self._computed_available(t.source):
            self._saturated.discard(t.source)
        self._inbound.pop((t.cache_name, t.dest_worker), None)
        return t

    def cancel_for_worker(self, worker_id: str) -> list[Transfer]:
        """Drop every transfer to or from a departed worker."""
        dropped = [
            t
            for t in self._by_id.values()
            if t.dest_worker == worker_id or t.source == worker_id
        ]
        for t in dropped:
            self.complete(t.transfer_id)
        return dropped

    # -- queries -------------------------------------------------------

    def in_flight(self, cache_name: str, dest_worker: str) -> bool:
        """True if this object is already on its way to this worker."""
        return (cache_name, dest_worker) in self._inbound

    def get(self, transfer_id: str) -> Transfer:
        """Look up an in-flight transfer (KeyError if unknown)."""
        return self._by_id[transfer_id]

    def active(self) -> list[Transfer]:
        """Snapshot of all in-flight transfers."""
        return list(self._by_id.values())

    def __len__(self) -> int:
        return len(self._by_id)
