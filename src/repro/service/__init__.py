"""Service mode: a long-lived multi-tenant manager and its clients.

One always-on :class:`~repro.core.manager.Manager` owns the workers
and the content-addressed cache; many client workflows attach to it
over the client-session protocol (``docs/protocol.md``), each under a
tenant label with its own namespace, quotas, and fair share of the
cluster.  :mod:`repro.service.daemon` is the TigerFlow-style
``repro-service run|status|stop`` lifecycle; :mod:`repro.service.client`
is the blocking client library and CLI.
"""

from typing import TYPE_CHECKING

from repro import _lazy

if TYPE_CHECKING:  # pragma: no cover - static tools see the eager names
    from repro.service.client import ClientError, ServiceClient

__all__ = ["ServiceClient", "ClientError"]

#: the module each public name lives in, imported when the name is first
#: read: ``python -m repro.service.daemon`` runs this package first, and
#: the daemon needs no client
_ORIGIN = {
    "ServiceClient": "repro.service.client",
    "ClientError": "repro.service.client",
}

__getattr__, __dir__ = _lazy(__name__, _ORIGIN)
