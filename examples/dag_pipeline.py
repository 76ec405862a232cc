#!/usr/bin/env python3
"""A dataflow pipeline of Python functions (paper §6 direction).

A map/reduce-style genomics quality pipeline, each function call one
PythonTask — the "one high-level task, one TaskVine task" mapping a
Parsl or Dask layer makes: sequence batches are scored in parallel,
per-batch summaries merge pairwise up a tree, one level at a time, and
a final report task consumes the merged summary.

Run with::

    python examples/dag_pipeline.py
"""

import repro
from _cluster import start_workers

N_BATCHES = 6


def score_batch(batch_id, n_sequences=200, length=120):
    """Compute GC-content statistics for one synthetic batch."""
    from repro.apps.miniblast import generate_sequences

    sequences = generate_sequences(n_sequences, length, seed=batch_id)
    gc = [
        (seq.count("G") + seq.count("C")) / len(seq)
        for seq in sequences.values()
    ]
    return {
        "batch": batch_id,
        "n": len(gc),
        "gc_sum": sum(gc),
        "gc_min": min(gc),
        "gc_max": max(gc),
    }


def merge(left, right):
    """Combine two batch summaries."""
    return {
        "batch": f"{left['batch']}+{right['batch']}",
        "n": left["n"] + right["n"],
        "gc_sum": left["gc_sum"] + right["gc_sum"],
        "gc_min": min(left["gc_min"], right["gc_min"]),
        "gc_max": max(left["gc_max"], right["gc_max"]),
    }


def report(summary):
    """Format the final quality report."""
    mean = summary["gc_sum"] / summary["n"]
    return (
        f"{summary['n']} sequences: GC content "
        f"mean {mean:.3f}, range [{summary['gc_min']:.3f}, {summary['gc_max']:.3f}]"
    )


def run_level(m, calls):
    """Run one level's calls in parallel; their values, in call order."""
    tasks = [repro.PythonTask(func, *args) for func, *args in calls]
    for task in tasks:
        m.submit(task)
    m.run_until_done()
    for task in tasks:
        if task.state != repro.TaskState.DONE:
            raise RuntimeError(f"{task.task_id} failed: {task.result.failure}")
    return [task.output() for task in tasks]


def main():
    m = repro.Manager()
    start_workers(m, count=2, cores=4)

    level = run_level(m, [(score_batch, i) for i in range(N_BATCHES)])
    executed = len(level)
    # merge pairwise up a tree; an odd summary out waits for the next level
    while len(level) > 1:
        pairs = [(merge, level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
        merged = run_level(m, pairs)
        executed += len(merged)
        level = merged + level[2 * len(pairs):]
    (final,) = run_level(m, [(report, level[0])])
    executed += 1
    print(final)
    print(f"graph executed {executed} nodes across {len(m.workers)} workers")
    m.close()


if __name__ == "__main__":
    main()
