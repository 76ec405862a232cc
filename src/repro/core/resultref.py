"""Pass-by-reference results: :class:`ResultRef` descriptors and lazy proxies.

The manager's result plane (ROADMAP item 3) adopts the object-proxy
pattern: a task's output stays in worker caches under its
content-addressed name, and what travels through the manager is a
:class:`ResultRef` — cache name, size, optional md5, and a snapshot of
the holders.  Consumers receive a :class:`ResultProxy` wrapping the
ref; the value is materialized only on first :meth:`ResultProxy.resolve`,
either from a worker-local cache path (when the proxy was shipped into
a downstream task whose inputs staged the ref peer-to-peer) or through
a bound fetcher (the client's ``fetch_result`` plane).

Proxies pickle by reference (``__reduce__`` keeps only the ref), so a
proxy embedded in a follow-up submission's arguments costs a few dozen
bytes on the wire regardless of the value it stands for.

This module is deliberately dependency-light: it is imported by the
manager, the service client, and the forked library-instance children
at the workers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.protocol import serialization as ser

__all__ = [
    "ProxyResolutionError",
    "ResultRef",
    "ResultProxy",
    "decode_result",
    "encode_result",
    "install_local_paths",
    "local_paths",
    "scan_refs",
]


class ProxyResolutionError(RuntimeError):
    """A proxy could not be dereferenced (no path, no fetcher, or the
    recorded execution failed)."""


@dataclass(frozen=True)
class ResultRef:
    """Description of a by-reference result living in worker caches."""

    cache_name: str
    size: int = 0
    md5: Optional[str] = None
    #: holders at publication time — a hint, not a guarantee; the fetch
    #: plane re-resolves holders (and retries/regenerates) on demand
    holders: tuple = field(default_factory=tuple)

    def to_dict(self) -> dict:
        d = {"cache_name": self.cache_name, "size": int(self.size)}
        if self.md5 is not None:
            d["md5"] = self.md5
        if self.holders:
            d["holders"] = list(self.holders)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ResultRef":
        return cls(
            cache_name=str(d["cache_name"]),
            size=int(d.get("size", 0)),
            md5=d.get("md5"),
            holders=tuple(d.get("holders", ())),
        )


#: worker-local resolution table: cache name -> filesystem path of the
#: cached object.  Installed by the library instance before invoking a
#: function whose arguments may carry proxies, so dereferencing is a
#: local file read — no network, no manager.
_LOCAL_PATHS: dict[str, str] = {}


def install_local_paths(paths: dict) -> None:
    """Install (merge) worker-local cache paths for proxy resolution."""
    _LOCAL_PATHS.update({str(k): str(v) for k, v in paths.items()})


def local_paths() -> dict:
    """The currently installed local resolution table (read-only use)."""
    return dict(_LOCAL_PATHS)


def encode_result(value: Any) -> bytes:
    """Serialize a function's return value as a result envelope."""
    return ser.dumps({"ok": True, "value": value})


def decode_result(blob: bytes) -> Any:
    """Decode a result envelope; re-raise the recorded failure if any."""
    decoded = ser.loads(blob)
    if decoded.get("ok"):
        return decoded.get("value")
    error = decoded.get("error")
    if isinstance(error, BaseException):
        raise error
    raise ProxyResolutionError(
        decoded.get("traceback") or repr(error) or "remote execution failed"
    )


def _restore_proxy(cache_name: str, size: int, md5: Optional[str]) -> "ResultProxy":
    """Unpickle hook: proxies travel as bare refs and rebind locally."""
    return ResultProxy(ResultRef(cache_name=cache_name, size=size, md5=md5))


class ResultProxy:
    """A lazy handle to a by-reference result.

    ``resolve()`` memoizes: the first call materializes the value (from
    a worker-local path or the bound fetcher), every later call returns
    the same object.  Pickling strips the fetcher and the cached value —
    only the ref travels — so a proxy embedded in a downstream task's
    arguments resolves *at the worker* against its local cache.
    """

    def __init__(
        self,
        ref: ResultRef,
        fetcher: Optional[Callable[[str], bytes]] = None,
    ) -> None:
        self.ref = ref
        self._fetcher = fetcher
        self._lock = threading.Lock()
        self._value: Any = None
        self._resolved = False

    @property
    def cache_name(self) -> str:
        return self.ref.cache_name

    def resolve(self) -> Any:
        """Materialize the value (memoized; thread-safe)."""
        with self._lock:
            if self._resolved:
                return self._value
            blob = self._payload_bytes()
            self._value = decode_result(blob)
            self._resolved = True
            return self._value

    #: common alias — ``proxy.value()`` reads naturally in applications
    value = resolve

    def _payload_bytes(self) -> bytes:
        name = self.ref.cache_name
        path = _LOCAL_PATHS.get(name)
        if path is not None:
            try:
                with open(path, "rb") as f:
                    return f.read()
            except OSError as exc:
                raise ProxyResolutionError(
                    f"local replica of {name} unreadable: {exc}"
                ) from exc
        if self._fetcher is not None:
            return self._fetcher(name)
        raise ProxyResolutionError(
            f"proxy for {name} has no local replica and no fetcher bound"
        )

    def __reduce__(self):
        return (_restore_proxy, (self.ref.cache_name, self.ref.size, self.ref.md5))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "resolved" if self._resolved else "lazy"
        return f"<ResultProxy {self.ref.cache_name} {self.ref.size}B {state}>"


def scan_refs(obj: Any) -> list[ResultRef]:
    """Collect the refs of every :class:`ResultProxy` reachable through
    plain containers (list/tuple/set/dict) in ``obj``, in first-seen
    order.  Submission paths use this to declare proxy arguments as
    task inputs, so the bytes stage worker-to-worker."""
    seen: dict[str, ResultRef] = {}

    def walk(x: Any) -> None:
        if isinstance(x, ResultProxy):
            seen.setdefault(x.ref.cache_name, x.ref)
        elif isinstance(x, (list, tuple, set, frozenset)):
            for item in x:
                walk(item)
        elif isinstance(x, dict):
            for k, v in x.items():
                walk(k)
                walk(v)

    walk(obj)
    return list(seen.values())
