import pytest

from tests.plane_invariants import watch_plane_invariants
from tests.stage_wakes import watch_for_overslept_stages

#: the suites whose every pump is followed by the every-pump re-plan of
#: ``tests/stage_wakes.py`` and the container checks of
#: ``tests/plane_invariants.py`` — all simulator and fault scenarios,
#: except the modules that count or pin work at paper scale, which the
#: oracles would only slow (and whose counts they would inflate)
_WATCHED = ("tests.sim.", "tests.faults.")
_AT_SCALE = ("tests.sim.test_pump_equivalence", "tests.sim.test_workloads")


@pytest.fixture(autouse=True)
def _pump_oracles(request, monkeypatch):
    module = request.module.__name__
    if module.startswith(_WATCHED) and module not in _AT_SCALE:
        watch_for_overslept_stages(monkeypatch)
        watch_plane_invariants(monkeypatch)
