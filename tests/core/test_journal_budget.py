"""What one task costs the journal, counted — never timed.

A noop task with three temp outputs is written to the control-plane
journal as its outputs' declares, its submit, its ``done``, one
``replica`` per output it produced (folded from ``file_cached``) and,
once the workflow ends, one ``replica_gone`` per collected output
(folded from ``file_deleted``).  This test runs a whole manager life
of such tasks through the plane over the ``FakePort`` of
``test_control_plane`` with a :class:`ControlPlaneJournal` attached,
and bounds the records and bytes appended per task.

The figures depend on neither the machine nor the hash seed (no clock
or set order enters a record); run with ``-s`` to see them.
"""

import os

from repro.core.files import TempFile
from repro.core.journal import ControlPlaneJournal, Journal
from repro.core.task import Task, TaskResult
from tests.core.test_control_plane import add_worker, make_control

TASKS = 500
OUTPUTS = 3

#: records per task: three declares, a submit, a done, three replicas
#: and three replica_gone records
RECORDS = 11
#: bytes per task, length prefixes included: 1 154 B measured on
#: CPython 3.11 (submit 361, declares 321, replicas 195, replica_gone
#: 180, done 98); a second replica record per output would add 195 B
BYTES = 1200


def test_a_noop_task_costs_the_journal_its_records_under_a_byte_budget(tmp_path):
    # no compaction: every record of the life stays in the log to count
    journal = ControlPlaneJournal(str(tmp_path), snapshot_every=10**9, fsync=False)
    port, control = make_control(journal=journal)
    for i in range(4):
        add_worker(port, control, f"w{i}", cores=4)
    for i in range(TASKS):
        task = Task("noop")
        for k in range(OUTPUTS):
            f = TempFile()
            f.cache_name = f"temp-{i:04d}-{k}"
            control.declare(f)
            task.add_output(f, f"out{k}")
        control.submit(task)
    control.pump()
    while port.started:
        sweep = port.started[:]
        port.started.clear()
        for task in sweep:
            produced = [(f.cache_name, 10) for _, f in task.outputs]
            control.attempt_ended(
                task.worker_id, task.task_id, TaskResult(exit_code=0), produced
            )
        control.pump()
    control.end_workflow()
    journal.close()
    assert control.done_count == TASKS

    records = journal.journal.lifetime_records / TASKS
    size = os.path.getsize(os.path.join(str(tmp_path), Journal.LOG_NAME)) / TASKS
    print(f"\njournal per noop task: {records:.2f} records (bound {RECORDS}), "
          f"{size:.1f} B (bound {BYTES})")
    assert records <= RECORDS, records
    assert size <= BYTES, size
