"""The mappings a DAG or serverless layer makes onto the manager (paper §6).

A workflow layer turns each call into one task: a ``PythonTask`` per
graph node, whose value feeds the nodes that depend on it, or a
``FunctionCall`` into a library made of a mapped function.  These tests
drive those shapes through the real ``Manager`` and worker processes.
"""

import pytest

from repro.core.library import FunctionCall
from repro.core.task import PythonTask, TaskState
from tests.integration.conftest import Cluster


@pytest.fixture()
def cluster(tmp_path):
    c = Cluster(tmp_path, n_workers=2)
    yield c
    c.stop()


def _double(x):
    return x * 2


def _add(a, b):
    return a + b


def _fail():
    raise ValueError("deliberate")


def _half(x):
    if x % 2:
        raise ValueError(f"odd {x}")
    return x // 2


def _run(m, calls):
    """Run calls that wait on nothing still pending, together; their values."""
    tasks = [PythonTask(func, *args) for func, *args in calls]
    for t in tasks:
        m.submit(t)
    m.run_until_done(timeout=120)
    assert all(t.state == TaskState.DONE for t in tasks), [
        (t.task_id, t.state, t.result and t.result.failure) for t in tasks
    ]
    return [t.output() for t in tasks]


def test_dag_linear_chain(cluster):
    m = cluster.manager
    (a,) = _run(m, [(_double, 3)])
    (b,) = _run(m, [(_double, a)])
    (c,) = _run(m, [(_double, b)])
    assert c == 24
    assert a == 6


def test_dag_diamond(cluster):
    m = cluster.manager
    (root,) = _run(m, [(_double, 5)])
    left, right = _run(m, [(_add, root, 1), (_add, root, 2)])
    (top,) = _run(m, [(_add, left, right)])
    assert top == (10 + 1) + (10 + 2)


def test_dag_parallel_branches_independent(cluster):
    m = cluster.manager
    leaves = _run(m, [(_double, i) for i in range(6)])
    (pair,) = _run(m, [(_add, leaves[0], leaves[1])])
    (total,) = _run(m, [(_add, pair, leaves[2])])
    assert total == 0 + 2 + 4
    assert leaves == [0, 2, 4, 6, 8, 10]
    assert len(m.log.events("task_end")) >= 8


def test_serverless_map_remote_exception(cluster):
    """A mapped function that raises fails its own call, not the map."""
    m = cluster.manager
    m.create_library("mapped", [_fail, _half], function_slots=2)
    m.install_library("mapped")
    bad = FunctionCall("mapped", "_fail")
    calls = [FunctionCall("mapped", "_half", i) for i in range(4)]
    for fc in [bad, *calls]:
        m.submit(fc)
    m.run_until_done(timeout=120)
    assert bad.state == TaskState.FAILED
    assert "ValueError" in (bad.result.failure or "")
    assert [fc.state for fc in calls] == [
        TaskState.DONE, TaskState.FAILED, TaskState.DONE, TaskState.FAILED,
    ]
    assert [calls[0].output(), calls[2].output()] == [0, 1]
    assert "odd 3" in (calls[3].result.failure or "")
