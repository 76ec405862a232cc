"""The placement pass against the one it replaced, pass by pass.

``ControlPlane._place_ready`` keeps one ``PlacementIndex`` per library
key alive across pumps and ends a pass as soon as it can prove that what
it has not yet looked at would only fail.  ``reference_scheduler.
place_ready`` is the pass it replaced — an index rebuilt from every
worker, and every ready task probed until the 64th failure.  Two planes
over identical histories, one running each, must agree after every
pass on what was placed where (in order), on the pop order of what is
left in every tenant's heap and on what is parked, and on where the
tenant ring stands.

The histories mix task shapes (cores and memory, some incomparable),
two libraries' calls, three tenants with two priorities, workers that
join, drain, leave and pick up failure scores, completions that free
capacity, and temps whose only replica leaves with its worker (lineage
regeneration, parking).  Lineage is never exhausted here: a task failed
in the middle of a pass can release a dispatched consumer's capacity,
which the old per-pass index did not see until the next pass and the
kept-current one sees at once.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.control_plane import NO_SOURCE, ControlPlane, LibraryState
from repro.core.files import File
from repro.core.library import FunctionCall
from repro.core.policy import Policy
from repro.core.resources import ResourcePool, Resources
from repro.core.task import Task, TaskResult
from tests.core.reference_scheduler import place_ready
from tests.core.test_control_plane import FakePort
from tests.plane_invariants import violations

TENANTS = ("alice", "bob", "carol")
LIBS = ("lib1", "lib2")
POLICY = Policy(loss_retries=1000)


class History:
    """One plane fed a scripted history, recording every pass."""

    def __init__(self, reference: bool):
        self.port = FakePort()
        self.control = ControlPlane(self.port, POLICY)
        self.placed = []
        self.passes = []
        self.temps = []
        self.joined = 0
        control = self.control
        for name in LIBS:
            control.libraries[name] = LibraryState(
                name, resources=Resources(cores=1), slots=2
            )
            control.install_library(name)
        dispatch = control._dispatch
        place = control._place_ready

        def recorded_dispatch(task, wid):
            self.placed.append((task.task_id, wid))
            dispatch(task, wid)

        def recorded_pass():
            before = len(self.placed)
            result = place_ready(control) if reference else place()
            self.passes.append((self.placed[before:], _queue_state(control), result))
            return result

        control._dispatch = recorded_dispatch
        control._place_ready = recorded_pass

    def apply(self, op):
        control = self.control
        kind = op[0]
        workers = sorted(control.workers)
        if kind == "join":
            self.joined += 1
            control.worker_joined(
                f"w{self.joined}", ResourcePool(Resources(cores=op[1], memory=1000))
            )
        elif kind == "submit":
            _, what, cores, memory, tenant, priority, reads, writes = op
            task = FunctionCall(what, "f") if what in LIBS else Task("cmd")
            if what not in LIBS:
                task.resources = Resources(cores=cores, memory=memory)
            task.set_tenant(tenant).set_priority(priority)
            if reads is not None and self.temps:
                task.add_input(self.temps[reads % len(self.temps)], "in")
            if writes:
                f = File()
                f.cache_name = f"temp-{len(self.temps)}"
                control.declare(f, 10, NO_SOURCE)
                self.temps.append(f)
                task.add_output(f, "out")
            control.submit(task)
        elif not workers:
            return
        elif kind == "finish":
            running = sorted(control._running)
            if running:
                task = control._running[running[op[1] % len(running)]]
                control.attempt_ended(
                    task.worker_id, task.task_id, TaskResult(exit_code=0),
                    produced=[(f.cache_name, 10) for _, f in task.outputs],
                )
        else:
            wid = workers[op[1] % len(workers)]
            if kind == "leave":
                control.worker_left(wid)
            elif kind == "drain":
                control.drain_worker(wid)
            elif kind == "fault":  # weighed as a corrupt transfer
                control._note_worker_failure(wid, weight=2)
            elif kind == "success":
                control._note_worker_success(wid)
            elif kind == "lib_ready":
                for name in LIBS:
                    control.on_library_ready(wid, name)
        control.pump()


def _queue_state(control: ControlPlane):
    """Pop order left in each tenant's heap, what is parked, and the ring."""
    q = control._ready
    order = {}
    for tenant, heap in q._heaps.items():
        valid = sorted(
            e for e in heap if q._live.get(e[3].task_id, (None,))[0] == e[2]
        )
        order[tenant] = [e[3].task_id for e in valid]
    return order, sorted(q._parked), list(q._ring), q._ring_pos


_workers = st.integers(0, 7)
OPS = st.one_of(
    st.tuples(st.just("join"), st.integers(1, 4)),
    st.tuples(
        st.just("submit"),
        st.sampled_from(["task", "task", "task", *LIBS]),
        st.integers(1, 3),
        st.sampled_from([0, 200, 600]),
        st.sampled_from(TENANTS),
        st.sampled_from([0, 1]),
        st.one_of(st.none(), st.integers(0, 9)),
        st.booleans(),
    ),
    st.tuples(st.just("finish"), st.integers(0, 31)),
    st.tuples(st.just("leave"), _workers),
    st.tuples(st.just("drain"), _workers),
    st.tuples(st.just("fault"), _workers),
    st.tuples(st.just("success"), _workers),
    st.tuples(st.just("lib_ready"), _workers),
)


def replay(ops) -> History:
    """Feed ``ops`` to both passes, comparing after every one."""
    kept = History(reference=False)
    rebuilt = History(reference=True)
    for op in ops:
        kept.apply(op)
        rebuilt.apply(op)
        assert kept.passes == rebuilt.passes
        assert not violations(kept.control)
    assert kept.placed == rebuilt.placed
    return kept


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.tuples(st.just("join"), st.integers(1, 4)), min_size=1, max_size=3),
    st.lists(OPS, min_size=10, max_size=60),
)
def test_placement_passes_match_the_rebuild_and_full_scan(joins, ops):
    replay([*joins, *ops])


def test_a_small_task_behind_a_failing_big_one_is_still_placed():
    """The case a pass that stops at its first failure gets wrong: the
    big task fits nowhere, the small one behind it does (each of the
    two libraries holds one of the worker's four cores)."""
    h = History(reference=False)
    h.apply(("join", 4))
    for cores in (3, 1):
        h.apply(("submit", "task", cores, 0, "alice", 0, None, False))
    assert h.placed == [("t2", "w1")]


def test_an_early_end_turns_the_tenant_ring_like_the_failures_it_skips():
    # nothing fits: each pass ends on its first failure and skips the rest
    kept = replay(
        [("join", 3)]
        + [("submit", "task", 2, 0, tenant, 0, None, False) for tenant in TENANTS * 3]
    )
    assert not kept.placed


def test_a_producer_regenerated_mid_pass_is_not_dealt_by_the_skip():
    """A lost temp's producer re-queued in the middle of a pass waits
    for the re-pump; the ring turns of the failures the pass skips must
    not count it as a task its tenant could be dealt."""
    replay(
        [
            ("join", 4),
            ("submit", "task", 2, 0, "bob", 0, None, True),  # t1 writes temp-0
            ("finish", 0),
            ("leave", 0),  # temp-0 and the only worker are gone
            ("submit", "task", 2, 0, "carol", 0, None, False),  # fits nowhere
            # regenerates t1 into bob's heap, then carol's t2 fails
            ("submit", "task", 2, 0, "bob", 0, 0, False),
        ]
    )


def test_a_queued_reader_of_a_lost_temp_is_looked_at_again():
    """A task found placeable-but-for-capacity is not vouched for once
    its input loses its last replica: the pass must reach it and park it
    on the regenerated producer, not end on the failures before it."""
    kept = replay(
        [
            ("join", 4),
            ("submit", "task", 1, 0, "alice", 0, None, True),  # t1 writes temp-0
            ("finish", 0),
            ("join", 2),  # full: its two cores go to the libraries
            ("submit", "task", 2, 0, "alice", 0, None, False),  # t2 runs on w1
            ("submit", "task", 2, 0, "alice", 1, None, False),  # t3 fits nowhere
            ("submit", "task", 2, 0, "alice", 0, 0, False),  # t4 reads temp-0
            ("leave", 0),  # temp-0 is lost; t1 re-runs, t2 is requeued
        ]
    )
    assert "t4" in kept.passes[-1][1][1]  # parked
