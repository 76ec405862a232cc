"""The DAG example, run as a user runs it: a script, two worker processes.

``examples/dag_pipeline.py`` maps each call of a small map/reduce
pipeline onto one ``PythonTask`` on the real ``Manager`` — six scoring
leaves in parallel, pairwise merges up a tree whose levels depend on the
one below, one report task.  Its output is fixed by its seeds.
"""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_the_dag_pipeline_example_runs_its_tree_of_python_tasks():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    done = subprocess.run(
        [sys.executable, "dag_pipeline.py"],
        cwd=os.path.join(REPO, "examples"),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (
        "1200 sequences: GC content mean 0.502, range [0.342, 0.667]\n"
        "graph executed 12 nodes across 2 workers\n"
    )
