"""The every-pump re-plan, kept as a test oracle.

The control plane used to re-plan every mini-task job, every library
deployment and every deferred task on every pump; it now re-plans a
waiting stage only when an event that can change its plan woke it.  A
woken superset is harmless, so the one way the two can differ is a
missed wake — a stage whose plan would act, left asleep.

:func:`watch_for_overslept_stages` wraps ``ControlPlane.pump`` so that
after each outermost pump every stage nothing woke is planned the old
way, and fails the test if such a plan would start a transfer or the
stage itself.  ``tests/sim`` and ``tests/faults`` run under it
(``tests/conftest.py``), which puts every fault, drain, recovery and
fetch scenario those suites hold behind the wake indexes.
"""

from repro.core.control_plane import ControlPlane


def overslept(control: ControlPlane) -> list:
    """Live stages no event woke whose plan would nevertheless act."""
    stages = list(control._task_stages.values())
    stages += [j.stage for jobs in control._staging.values() for j in jobs.values()]
    stages += [s for lib in control.libraries.values() for s in lib.stages.values()]
    late = []
    for stage in stages:
        if not stage.live or stage in control._stage_dirty or control._woken(stage):
            continue
        plan = control.scheduler.plan_transfers(
            stage.consumer, stage.worker_id, control.sources
        )
        if plan.transfers or not (plan.pending or plan.deferred):
            late.append((stage, plan))
    return late


def watch_for_overslept_stages(monkeypatch) -> None:
    pump = ControlPlane.pump

    def checked(self):
        pump(self)
        if not self._pump_depth and not self.closed:
            late = overslept(self)
            assert not late, f"stages left asleep with something to do: {late}"

    monkeypatch.setattr(ControlPlane, "pump", checked)
