"""Command line of the benchmark.

``run.py --workload W --seed N --seconds S --trace 0|1`` is the contract
form: one workload, one JSON result line.  ``python -m perfbench run``
is the same for people: every workload (or one), every metric printed by
name with its unit, exit status non-zero on a wrong result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
import threading
import time

from perfbench import agree, harness, sut, trace  # sut exits in a bare checkout

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_spec() -> dict:
    with open(SPEC_PATH) as f:
        return json.load(f)


def _run_pass(name: str, module, params: dict) -> tuple[dict, dict]:
    """All phases of one workload, each in a fresh interpreter."""
    os.makedirs(params["root"])
    results = {
        phase: harness.run_phase(name, phase, params) for phase in module.PHASES
    }
    return results, module.summarize(results)


def _problems(results: dict) -> list[str]:
    """Everything that makes a pass wrong: bad outputs and bad hygiene."""
    problems = []
    for phase, r in results.items():
        if r["failed"]:
            problems.append(f"{phase}: {r['failed']} failed, e.g. {r['failures']}")
        if r["survivors"]:
            problems.append(f"{phase}: processes survived the phase")
        if r["leaked_fds"] or r["leaked_threads"]:
            problems.append(
                f"{phase}: leaked {r['leaked_fds']} fds, {r['leaked_threads']} threads"
            )
    return problems


def run_workload(
    name: str, seed: int, seconds: float, traced: bool,
    scale: float = 1.0, corrupt: bool = False,
) -> dict:
    """One run of one workload; returns the contract's result object.

    End-to-end metrics always come from an untraced pass.  A traced run
    repeats the workload with the shims installed (in its own
    directories, so a cold cache is cold again), adds the layer
    microbenches, and reports the per-layer metrics instead.
    """
    spec = load_spec()
    if name not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"perfbench: unknown workload {name!r}")
    module = importlib.import_module(f"perfbench.{name}")
    fds, threads = harness.open_fds(), threading.active_count()
    with harness.temp_root() as root:
        params = dict(module.plan(seed, seconds, scale), traced=False)
        if corrupt:
            params["corrupt"] = True
        params["root"] = os.path.join(root, "untraced")
        results, values = _run_pass(name, module, params)
        passes = [results]
        phases = list(results.values())
        values["setup_s"] = statistics.median(
            s for r in phases for s in r["setup_samples"]
        )
        values["peak_rss_mb"] = max(r["peak_rss_mb"] for r in phases)
        if traced:
            params = dict(params, traced=True, root=os.path.join(root, "traced"))
            traced_results, traced_values = _run_pass(name, module, params)
            passes.append(traced_results)
            micro = harness.run_phase(
                "layers", "micro", {"root": params["root"], "scale": scale}
            )
            overhead = 1.0 - traced_values[module.HEADLINE] / values[module.HEADLINE]
            values = trace.summarize(
                name, traced_results, traced_values, overhead, micro["layers"],
                params["root"],
            )
    problems = [p for results in passes for p in _problems(results)]
    if harness.open_fds() > fds or threading.active_count() > threads:
        problems.append("benchmark parent leaked descriptors or threads")
    attempted = sum(r["attempted"] for results in passes for r in results.values())
    failed = sum(r["failed"] for results in passes for r in results.values())
    kind = "per_layer" if traced else "end_to_end"
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec[kind]
        },
        "problems": problems,
    }


def _emit(result: dict) -> int:
    for problem in result.pop("problems"):
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("command", nargs="?", choices=("run", "agree", "check-surface"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--scale", type=float, default=1.0, help="shrink every size (tests)")
    parser.add_argument("--runs", type=int, default=10, help="agree: runs per set")
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--phase", help=argparse.SUPPRESS)
    parser.add_argument("--params", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.phase:
        return harness.child_main(args.phase, json.loads(args.params))
    if args.command == "check-surface":
        missing = sut.check_surface()
        for name in missing:
            print(f"missing: {name}")
        print(f"perfbench: {len(missing)} of the symbols in sut.py are missing")
        return 1 if missing else 0

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    traced = bool(args.trace or args.traced)
    if args.command == "agree":
        return agree.main(spec, args.workload, args.seed, seconds, args.runs, args.scale)
    if args.command is None:
        if not args.workload:
            parser.error("--workload is required")
        return _emit(
            run_workload(args.workload, args.seed, seconds, traced, args.scale, args.corrupt)
        )

    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    status = 0
    for name in names:
        started = time.perf_counter()
        result = run_workload(name, args.seed, seconds, traced, args.scale, args.corrupt)
        print(f"== {name} (seed {args.seed}, {'traced' if traced else 'untraced'}, "
              f"{time.perf_counter() - started:.1f}s) "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"correct={result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"{metric:40s} {entry['value']:16.6f} {entry['unit']}")
        for problem in result["problems"]:
            print(f"perfbench: {problem}", file=sys.stderr)
        if not result["correct"]:
            status = 1
    return status
