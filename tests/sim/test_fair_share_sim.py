"""Fair-share acceptance in the simulator (ISSUE: service-mode tenancy).

Tenant A floods the queue with a large batch, then tenant B submits a
small workflow.  Under FIFO across tenants B waits for nearly all of
A's tasks; under deficit-round-robin B's tasks interleave at the front
and its makespan collapses.  The acceptance bar: fair-share makespan
for B is at most 25% of its FIFO-starved makespan.

The FIFO baseline is the same two workflows submitted under *one*
tenant label: single-tenant DRR is global ``(-priority, seq)`` order
(pinned by ``test_single_tenant_order_matches_reference_randomized``).
"""

from repro.core.task import Task
from repro.sim.simmanager import SimCluster, SimManager

FLOOD = 1000
SMALL = 10


def _run_scenario(small_tenant: str) -> tuple[float, float]:
    """Returns (small workflow's makespan, overall makespan)."""
    c = SimCluster()
    c.add_workers(4, cores=4)
    m = SimManager(c)

    b_tasks = []
    for i in range(FLOOD):
        t = Task(f"flood {i}")
        t.set_tenant("alice")
        m.submit(t, duration=1.0)
    for i in range(SMALL):
        t = Task(f"small {i}")
        t.set_tenant(small_tenant)
        m.submit(t, duration=1.0)
        b_tasks.append(t)
    stats = m.run()
    assert stats.tasks_done == FLOOD + SMALL
    b_makespan = max(t.finished_at for t in b_tasks)
    return b_makespan, stats.makespan


def test_fair_share_rescues_small_tenant_from_flood():
    b_fifo, total_fifo = _run_scenario(small_tenant="alice")
    b_fair, total_fair = _run_scenario(small_tenant="bob")

    # FIFO starves B behind A's 1000-task flood: B finishes near the end
    assert b_fifo > 0.5 * total_fifo
    # DRR interleaves B's 10 tasks at the head of the dispatch order
    assert b_fair <= 0.25 * b_fifo
    # fairness does not cost throughput: overall makespan is unchanged
    assert abs(total_fair - total_fifo) <= 0.05 * total_fifo
