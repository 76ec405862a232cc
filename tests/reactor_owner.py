"""The reactor owns the plane: how tests read it, and who enters it.

Once a :class:`~repro.core.manager.Manager`'s reactor runs, it is the
one thread that may read or change control-plane state, and the
application reaches the plane only through commands on its inbox.  A
test that wants to look at that state looks on the reactor:

* :func:`on_reactor` runs a closure there and returns what it returns —
  a round trip, so every declare and submit the test posted before is
  applied first;
* :func:`holding_reactor` stalls the reactor inside one command, so
  that everything the test posts meanwhile is applied in one sweep and
  placed by one pump;
* :class:`PlaneEntries` records every call of a public
  ``ControlPlane`` method with the thread it ran on, which is how tests,
  not the product, check that nothing else enters the plane;
* :class:`LoopOnly` does the same for the reactor's own state: a queued
  frame, a close and a timer-heap operation, which the reactor takes no
  lock for because only its loop makes them.
"""

from __future__ import annotations

import collections
import contextlib
import heapq
import inspect
import threading
import types

from repro.core import reactor as reactor_module
from repro.core.control_plane import ControlPlane
from repro.core.reactor import Reactor


def on_reactor(manager, fn, *args):
    """``fn(*args)`` on ``manager``'s reactor, after every earlier post."""
    return manager._ask(fn, *args)


@contextlib.contextmanager
def holding_reactor(manager, timeout: float = 30.0):
    """Keep the reactor inside one command for the ``with`` block."""
    held, release = threading.Event(), threading.Event()

    def hold() -> None:
        held.set()
        release.wait(timeout)

    manager.reactor.post(hold)
    assert held.wait(timeout), "the reactor never took the hold"
    try:
        yield
    finally:
        release.set()


class PlaneEntries:
    """Every public ``ControlPlane`` method, wrapped on the class for one
    test (so bound methods cached anywhere are wrapped too).

    A call counts as *off the owner* when its plane's runtime has a
    reactor that is running and the call is on another thread; before
    the reactor starts (construction, journal recovery) and after it
    stopped (``close``) the constructing or closing thread is the owner.
    """

    def __init__(self, monkeypatch) -> None:
        #: (method name, thread name) of each call made off the owner
        self.off_owner: list[tuple[str, str]] = []
        #: calls per method name made on the owner
        self.counts: collections.Counter = collections.Counter()
        for name, member in vars(ControlPlane).items():
            if not name.startswith("_") and inspect.isfunction(member):
                monkeypatch.setattr(ControlPlane, name, self._wrap(name, member))

    def _wrap(self, name: str, method):
        entries = self

        def entered(plane, *args, **kwargs):
            reactor = getattr(plane.port, "reactor", None)
            if (
                reactor is not None
                and reactor.running
                and threading.current_thread() is not reactor.thread
            ):
                entries.off_owner.append((name, threading.current_thread().name))
            else:
                entries.counts[name] += 1
            return method(plane, *args, **kwargs)

        return entered


class LoopOnly:
    """``Reactor._enqueue``, ``Reactor._doom`` and the module's
    ``heappush``/``heappop`` (every timer-heap change but the final
    ``clear``), wrapped for one test.

    A call counts as *off the loop* when it touches a reactor whose loop
    is running, from another thread.  Before the loop starts and after
    it ends nobody else runs it, so any thread may.
    """

    def __init__(self, monkeypatch) -> None:
        #: (operation, thread name) of each touch made off the loop
        self.off_loop: list[tuple[str, str]] = []
        #: touches per operation made on the loop (or with none running)
        self.counts: collections.Counter = collections.Counter()
        reactors: list[Reactor] = []
        init = Reactor.__init__

        def recorded_init(reactor, *args, **kwargs):
            init(reactor, *args, **kwargs)
            reactors.append(reactor)

        def on_heap(name, op):
            def touched(heap, *args):
                for reactor in reactors:
                    if reactor._deadlines is heap:
                        self._check(name, reactor)
                return op(heap, *args)

            return touched

        monkeypatch.setattr(Reactor, "__init__", recorded_init)
        monkeypatch.setattr(
            reactor_module,
            "heapq",
            types.SimpleNamespace(
                heappush=on_heap("heappush", heapq.heappush),
                heappop=on_heap("heappop", heapq.heappop),
            ),
        )
        for name in ("_enqueue", "_doom"):
            monkeypatch.setattr(Reactor, name, self._wrap(name, getattr(Reactor, name)))

    def _check(self, name: str, reactor: Reactor) -> None:
        loop = reactor._loop_ident
        if loop is not None and threading.get_ident() != loop:
            self.off_loop.append((name, threading.current_thread().name))
        else:
            self.counts[name] += 1

    def _wrap(self, name: str, method):
        def touched(reactor, *args, **kwargs):
            self._check(name, reactor)
            return method(reactor, *args, **kwargs)

        return touched
