"""``python -m perfbench agree``: do two sets of runs of the same code agree?

Runs every workload ``--runs`` times with seeds ``seed, seed+1, ...``,
twice, exactly as a regression check would (one fresh process per run,
through ``run.py``), and prints for each end-to-end metric its spread —
interquartile range over median, per set — beside the bound committed in
BENCHMARK.json, and how far the second set's median is from the first's
in the worsening direction.  A metric whose spread exceeds its bound
cannot resolve a regression of that size and is marked *unresolved*; so
is one whose medians drift apart by more than the bound.  The measured
spreads are what the committed bounds are justified by (README.md).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

from perfbench import harness


def spread(values: list) -> float:
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _one_run(workload: str, seed: int, seconds: float, scale: float) -> dict:
    argv = [
        sys.executable, harness.RUN_PY, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0", "--scale", str(scale),
    ]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return json.loads(lines[-1])


def main(spec: dict, workload, seed: int, seconds: float, runs: int, scale: float) -> int:
    names = [workload] if workload else [w["name"] for w in spec["workloads"]]
    record = {"seconds": seconds, "runs": runs, "seed": seed, "scale": scale, "workloads": {}}
    unresolved = wrong = 0
    for name in names:
        sets = []
        for which in (1, 2):
            started = time.perf_counter()
            results = [_one_run(name, seed + i, seconds, scale) for i in range(runs)]
            bad = [r for r in results if not r["correct"] or r["failed"]]
            wrong += len(bad)
            print(f"# {name} set {which}: {runs} runs in "
                  f"{time.perf_counter() - started:.0f}s, {len(bad)} wrong", flush=True)
            sets.append(results)
        print(f"{name:16s} {'metric':22s} {'median1':>12s} {'median2':>12s} "
              f"{'spread1':>8s} {'spread2':>8s} {'drift':>8s} {'bound':>6s}")
        rows = {}
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            series = [
                [r["metrics"][key]["value"] for r in results if key in r["metrics"]]
                for results in sets
            ]
            if any(len(s) < 4 for s in series):
                print(f"{'':16s} {key:22s} too few correct runs  unresolved")
                unresolved += 1
                continue
            med = [statistics.median(s) for s in series]
            spr = [spread(s) for s in series]
            worse = (med[1] - med[0]) / med[0]
            if metric["better"] == "higher":
                worse = -worse
            # set-up time is judged on its medians only
            noisy = key != "setup_s" and max(spr) > bound
            verdict = "unresolved" if noisy or worse > bound else "ok"
            unresolved += verdict != "ok"
            rows[key] = {
                "median": med, "spread": spr, "drift": worse, "bound": bound,
                "verdict": verdict, "values": series,
            }
            print(f"{'':16s} {key:22s} {med[0]:12.4f} {med[1]:12.4f} "
                  f"{spr[0]:8.1%} {spr[1]:8.1%} {worse:+8.1%} {bound:6.0%}  {verdict}")
        record["workloads"][name] = rows
    os.makedirs(harness.OUT, exist_ok=True)
    path = os.path.join(harness.OUT, "agree.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print(f"# {unresolved} unresolved, {wrong} wrong runs; details in {path}")
    return 1 if unresolved or wrong else 0
