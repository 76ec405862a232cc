"""The manager's policy configuration: one frozen object.

Everything an operator can tune about *how the control plane decides* —
transfer limits, the worker-loss budget, replication, quotas, memo
opt-outs — is a field of :class:`Policy`.  How often a failing source is
retried, how long it is held off, and when a worker is blocklisted are
constants of the control plane (``TRANSFER_RETRIES``,
``TRANSFER_BACKOFF_BASE``, ``BLOCKLIST_THRESHOLD``), not settings.  A runtime
(:class:`~repro.core.manager.Manager`,
:class:`~repro.sim.simmanager.SimManager`) takes one and hands it to
its :class:`~repro.core.control_plane.ControlPlane` untouched, so "what
is this manager running with" is a single value: logged once at start
and journaled in the meta record.  Deployment settings (addresses,
paths, credentials, timeouts of the transport) stay on the runtimes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

__all__ = ["Policy"]


@dataclass(frozen=True)
class Policy:
    """Tunables of the shared control plane (defaults = the paper's)."""

    #: max concurrent transfers one *worker* serves as a peer source
    #: (paper §3.3; 0 disables peer transfers, None removes the limit)
    worker_transfer_limit: Optional[int] = 3
    #: max concurrent transfers from one *fixed* source — the manager
    #: or a URL host (None removes the limit)
    source_transfer_limit: Optional[int] = 100
    #: place tasks where most of their input bytes already are
    locality: bool = True
    #: target replica count for task-produced files (paper §2.2:
    #: "duplicating items for reliability"); 1 disables replication
    temp_replica_count: int = 1
    #: worker-loss retry budget; None uses each task's ``max_retries``
    loss_retries: Optional[int] = None
    #: raise instead of failing the task when the loss budget is spent
    strict_loss: bool = False
    #: size first allocations and resource-exceeded retries from what
    #: the task's category was observed to use (paper §2.1)
    resource_learning: bool = False
    #: quotas stamped on tenant accounts as they first appear (None =
    #: unlimited); the service layer may override per tenant afterwards
    default_task_quota: Optional[int] = None
    default_byte_quota: Optional[int] = None
    #: tenants that opted out of memoization (both lookup and record)
    memo_opt_out: frozenset = frozenset()

    def __post_init__(self) -> None:
        # accept any iterable of tenant names (argparse hands a list)
        object.__setattr__(self, "memo_opt_out", frozenset(self.memo_opt_out or ()))

    def asdict(self) -> dict:
        """JSON-ready form: the journal's meta record and the start-up
        log line."""
        return {**dataclasses.asdict(self), "memo_opt_out": sorted(self.memo_opt_out)}
