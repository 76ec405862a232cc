"""What each process loads before it does any work, counted — never timed.

A worker, a service client and a library call each run one layer: a
worker runs the worker, protocol and util code plus the file and
resource records it caches; a client speaks the client protocol; the
manager's control plane, journal, scheduler and naming belong to the
manager alone.  ``import repro`` resolves its public names on first use
(PEP 562), so importing any ``repro.*`` module runs only what that
module needs.

Each role's import runs in a fresh interpreter, and the ``repro``
modules it leaves in ``sys.modules`` are counted against a fixed bound.
The figures do not depend on the machine, the hash seed or whether
bytecode is cached; run with ``-s`` to see them.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
import repro.observe
import repro.service

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))

#: ``repro`` modules a role may load: the worker loads 24 (worker,
#: protocol, util, ``observe.metrics``, ``core.files`` / ``core.gc`` /
#: ``core.resources`` / ``core.transfer_table``, the ``core.reactor`` its
#: loop runs on and the packages — and no ``protocol.batching``), the
#: client 9; both loaded 40 and 33 while ``repro/__init__.py`` imported
#: the manager.  The daemon's module loads 3 and imports the manager when
#: it runs: a client loaded before the manager is compiled raised the
#: daemon's peak RSS by ≈ 3 MB when bytecode is not cached
BOUND = {
    "repro": 1,
    "repro.worker.cli": 24,
    "repro.service.client": 10,
    "repro.service.daemon": 3,
}

#: what only the manager (or the bench reporter) runs
MANAGER_ONLY = (
    "repro.core.control_plane",
    "repro.core.manager",
    "repro.core.journal",
    "repro.core.scheduler",
    "repro.core.naming",
    "repro.observe.txnlog",
    "repro.observe.bench_report",
)


def _loaded(statement):
    """Every module in ``sys.modules`` after ``statement`` runs in a
    fresh interpreter."""
    out = subprocess.run(
        [
            sys.executable, "-c",
            f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))",
        ],
        capture_output=True, text=True, check=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    return json.loads(out.stdout)


def _own(modules):
    return [m for m in modules if m == "repro" or m.startswith("repro.")]


@pytest.mark.parametrize("role", sorted(BOUND))
def test_a_role_loads_no_more_than_its_bound(role):
    own = _own(_loaded(f"import {role}"))
    print(f"\n{role}: {len(own)} repro modules (bound {BOUND[role]})")
    assert len(own) <= BOUND[role], own


def test_import_repro_loads_no_submodule():
    assert _own(_loaded("import repro")) == ["repro"]


def test_a_worker_loads_nothing_of_the_manager():
    loaded = _loaded("import repro.worker.cli")
    assert [m for m in MANAGER_ONLY if m in loaded] == []
    # its messages are frames on its reactor's FIFO, not a batch sender's
    assert "repro.core.reactor" in loaded
    assert "repro.protocol.batching" not in loaded
    # only a worker that fetches a remote URL pays for the HTTP stack
    assert "urllib.request" not in loaded


def test_a_client_loads_nothing_of_the_manager():
    loaded = _loaded("import repro.service.client")
    assert [m for m in MANAGER_ONLY[:3] if m in loaded] == []


@pytest.mark.parametrize("package", [repro, repro.observe, repro.service])
def test_every_public_name_resolves(package):
    for name in package.__all__:
        assert getattr(package, name) is not None, name
    assert set(package.__all__) == set(package._ORIGIN)
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError):
        package.no_such_name


def test_star_import_binds_every_public_name():
    scope = {}
    exec("from repro import *", scope)
    exec("from repro.observe import *", scope)
    exec("from repro.service import *", scope)
    for package in (repro, repro.observe, repro.service):
        assert set(package.__all__) <= set(scope)
    assert scope["Manager"] is repro.Manager
    assert scope["MetricsRegistry"] is repro.observe.MetricsRegistry


def test_a_submodule_read_as_a_package_attribute_is_bound_on_import():
    """A name the benchmark's adapter reads off a package (``module:attr``
    in ``perfbench.sut.SYMBOLS``) that is a submodule must be bound by
    importing the package alone, with nothing else of ``repro`` loaded."""
    import importlib.util

    from perfbench.sut import SYMBOLS

    read = []
    for spec in SYMBOLS.values():
        module, _, attr = spec.partition(":")
        name = attr.split(".")[0]
        package = importlib.util.find_spec(module).submodule_search_locations
        if package and importlib.util.find_spec(f"{module}.{name}") is not None:
            read.append((module, name))
    for module, attr in read:
        _loaded(f"import {module}\n{module}.{attr}")
