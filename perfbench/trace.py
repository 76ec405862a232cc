"""Traced runs: timing shims around public layer entry points.

The benchmark, not the program, records the spans: ``install`` wraps a
handful of public functions and methods (listed in ``SHIMS``) with a
timer, from perfbench's own files, before the system is constructed.
Each span is ``(id, name, start, end, parent id, request id)``; spans
stay in memory and are written out when the phase ends.  A layer's
*self* time is its span minus the part its child spans cover, so the
self times of all layers partition the shimmed time without double
counting (``pump`` excludes the ``choose`` and ``txn_emit`` inside it).

Everything the program already counts — the manager's metrics snapshot
and its event log — is read after the run rather than re-measured.
End-to-end numbers are never taken from a traced run.
"""

from __future__ import annotations

import collections
import glob
import itertools
import json
import os
import statistics
import sys
import threading
import time

from perfbench import harness, sut

#: spans kept per process; aggregates keep counting past the cap
MAX_SPANS = 100_000


def _task_of_choose(args, kwargs, result):
    return getattr(args[1], "task_id", None)


def _task_of_emit(args, kwargs, result):
    return kwargs.get("task")


def _returned(args, kwargs, result):
    return result if isinstance(result, str) else None


#: (span name, sut alias of the owner or None for a function, attribute,
#:  request-id extractor, count only calls whose result is not None)
SHIMS = (
    ("protocol.encode", None, "encode_frame", None, False),
    ("protocol.decode", "FrameReassembler", "next_item", None, True),
    ("transfers.push", "Connection", "send_file", None, False),
    ("journal.append", "Journal", "append", None, False),
    ("manager.submit", "Manager", "submit", _returned, False),
    ("control_plane.ingest", "ControlPlane", "on_task_result", None, False),
    ("control_plane.ingest", "ControlPlane", "on_cache_update", None, False),
    ("control_plane.ingest", "ControlPlane", "on_transfer_complete", None, False),
    ("control_plane.pump", "ControlPlane", "pump", None, False),
    ("scheduler.choose", "Scheduler", "choose_worker_indexed", _task_of_choose, False),
    ("observe.txn_emit", "EventLog", "emit", _task_of_emit, False),
    ("naming.assign", "Namer", "assign", None, False),
)


class Tracer:
    """Span recorder shared by every shim of one process."""

    def __init__(self, params: dict | None = None) -> None:
        #: the phase's parameters (root, phase name) when run in a phase child
        self.params = params
        self.cpu_started = time.process_time()
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._tls = threading.local()
        self._lock = threading.Lock()
        #: one {name index: [calls, busy, self]} per thread that ran a shim
        self._per_thread: list[dict] = []
        self.pump_durations: list[float] = []
        self.sim_events = 0
        self.started = time.perf_counter()

    # -- recording -------------------------------------------------------

    def _thread_state(self):
        tls = self._tls
        tls.stack = []
        tls.aggregates = {}
        with self._lock:
            self._per_thread.append(tls.aggregates)
        return tls

    def wrap(self, name: str, fn, ident=None, hits_only: bool = False):
        if name not in self.names:
            self.names.append(name)
        idx = self.names.index(name)
        tls, spans, ids, clock = self._tls, self.spans, self._ids, time.perf_counter
        keep = self.pump_durations if name == "control_plane.pump" else None
        thread_state = self._thread_state

        def shim(*args, **kwargs):
            try:
                stack = tls.stack
            except AttributeError:
                stack = thread_state().stack
            sid = next(ids)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                agg = tls.aggregates.get(idx)
                if agg is None:
                    agg = tls.aggregates[idx] = [0, 0.0, 0.0]
                agg[1] += dur
                agg[2] += dur - frame[1]
                if not hits_only or result is not None:
                    agg[0] += 1
                    if keep is not None:
                        keep.append(dur)
                    if len(spans) < MAX_SPANS:
                        rid = ident(args, kwargs, result) if ident else None
                        spans.append((sid, idx, t0, t1, parent, rid))

        shim.__wrapped__ = fn
        return shim

    # -- reading ---------------------------------------------------------

    def totals(self) -> dict:
        """``{name: {"calls", "busy_s", "self_s"}}`` summed over threads."""
        out = {n: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for n in self.names}
        with self._lock:
            threads = list(self._per_thread)
        for aggregates in threads:
            for idx, (calls, busy, self_s) in list(aggregates.items()):
                entry = out[self.names[idx]]
                entry["calls"] += calls
                entry["busy_s"] += busy
                entry["self_s"] += self_s
        return out

    def dump(self, path: str, process: str) -> dict:
        """Write aggregates and spans (µs since trace start) to ``path``."""
        base = self.started
        totals = self.totals()
        doc = {
            "process": process,
            "totals": totals,
            "sim_events": self.sim_events,
            "pump_p99_us": harness.percentile(self.pump_durations, 99) * 1e6,
            "span_fields": ["id", "name", "start_us", "end_us", "parent", "request"],
            "names": self.names,
            "spans_dropped": sum(t["calls"] for t in totals.values()) - len(self.spans),
            "spans": [
                [sid, idx, round((t0 - base) * 1e6), round((t1 - base) * 1e6), parent, rid]
                for sid, idx, t0, t1, parent, rid in self.spans
            ],
        }
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))
        return doc

    # -- per-phase reports (run inside the phase child) --------------------

    def _dump_layers(self, process: str) -> dict:
        name = f"trace-{self.params['phase']}-{process}.json"
        return layers_from_trace(self.dump(os.path.join(self.params["root"], name), process))

    def report_manager(self, manager, result: dict, stamps=None) -> dict:
        """Library mode: shims + the manager's own metrics and event log."""
        layers = self._dump_layers("manager")
        layers.update(layers_from_metrics(manager.metrics.snapshot()))
        layers.update(layers_from_events(manager.log.events(), stamps or {}, 0.0))
        # library mode: the manager lives in the generator's process, and
        # the generator thread runs the manager's submit path itself, so
        # loadgen.cpu_s is a part of manager.cpu_s here, not beside it
        layers["manager.cpu_s"] = time.process_time() - self.cpu_started
        layers["loadgen.cpu_s"] = result["loadgen_cpu_s"]
        return layers

    def report_sim(self, result: dict, runs: list, snapshot=None) -> dict:
        """Simulator: shims + each run's transfer ledger (``SimRunStats``)."""
        layers = self._dump_layers("sim")
        layers["sim.cpu_s"] = layers["manager.cpu_s"] = result["sim_cpu_s"]
        for key, value in result.items():
            if key.endswith("_virtual_makespan_s"):
                layers[f"sim.{key}"] = value
        for kind in ("manager", "peer"):
            layers[f"transfers.{kind}_bytes"] = sum(
                r.bytes_by_source.get(kind, 0.0) for r in runs
            )
            layers[f"transfers.{kind}_count"] = sum(
                r.transfer_counts.get(kind, 0) for r in runs
            )
        layers["staging.unpacks"] = sum(len(r.log.events("stage_start")) for r in runs)
        if snapshot is not None:
            layers.update(layers_from_metrics(snapshot))
        return layers


def _patch_function(original, replacement) -> None:
    """Rebind every ``repro`` module global that is ``original``."""
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install_shims(tracer: Tracer) -> None:
    sut.Manager  # binds encode_frame into repro.core.manager before patching
    for name, owner, attr, ident, hits_only in SHIMS:
        if owner is None:
            original = getattr(sut, attr)
            _patch_function(original, tracer.wrap(name, original, ident, hits_only))
        else:
            cls = getattr(sut, owner)
            setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), ident, hits_only))
    schedule = sut.Simulation.schedule

    def counted_schedule(self, *args, **kwargs):
        tracer.sim_events += 1  # a count, not a span: this is the sim's hot loop
        return schedule(self, *args, **kwargs)

    sut.Simulation.schedule = counted_schedule


def install(params: dict):
    """Shim this interpreter if the run is traced; returns the tracer."""
    if not params.get("traced"):
        return None
    tracer = Tracer(params)
    install_shims(tracer)
    return tracer


# ---------------------------------------------------------------------------
# layer metrics from each source
# ---------------------------------------------------------------------------


def layers_from_trace(doc: dict) -> dict:
    t = doc["totals"]

    def get(name, field):
        return t.get(name, {}).get(field, 0)

    layers = {"sim.events": doc["sim_events"], "control_plane.pump_p99_us": doc["pump_p99_us"]}
    for name in ("protocol.encode", "protocol.decode", "journal.append",
                 "control_plane.pump", "control_plane.ingest", "observe.txn_emit"):
        layers[f"{name}_busy_s"] = get(name, "busy_s")
        layers[f"{name}_calls"] = get(name, "calls")
    layers["transfers.push_busy_s"] = get("transfers.push", "busy_s")
    layers["scheduler.choose_busy_s"] = get("scheduler.choose", "busy_s")
    layers["naming.assign_busy_s"] = get("naming.assign", "busy_s")
    layers["manager.submit_busy_s"] = get("manager.submit", "busy_s")
    layers["trace.attributed_s"] = sum(v["self_s"] for v in t.values())
    return layers


def _value(snapshot: dict, name: str, field: str = "value") -> float:
    return float(snapshot.get(name, {}).get(field, 0.0) or 0.0)


def layers_from_metrics(snapshot: dict) -> dict:
    """What the manager's own metrics registry already measured."""
    hits = _value(snapshot, "cache.hits")
    misses = _value(snapshot, "cache.misses")
    return {
        "scheduler.candidates_scored": _value(snapshot, "sched.candidates_scored"),
        "manager.reactor_loop_p50_ms": _value(snapshot, "net.reactor_loop_seconds", "p50") * 1e3,
        "manager.reactor_loop_p99_ms": _value(snapshot, "net.reactor_loop_seconds", "p99") * 1e3,
        "manager.frames_in": _value(snapshot, "net.frames_in"),
        "manager.messages_in": _value(snapshot, "net.messages_in"),
        "manager.batch_fill_mean": _value(snapshot, "net.batch_fill", "mean"),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "transfers.peak_concurrency": _value(snapshot, "transfers.in_flight", "max"),
    }


def layers_from_workers(workdirs: list) -> dict:
    """Per-task costs as the workers measured them: each real worker
    dumps its own registry into its workdir when it stops (function
    calls do not report their duration over the wire).  The median
    worker stands for the fleet."""
    wanted = {
        "worker.sandbox_setup_p50_ms": "sandbox.setup_seconds",
        "worker.exec_p50_ms": "task.execution_seconds",
        "worker.invoke_p50_ms": "library.invoke_seconds",
    }
    seen: dict = {name: [] for name in wanted}
    for workdir in workdirs:
        try:
            with open(os.path.join(workdir, "metrics.json")) as f:
                snapshot = json.load(f)["metrics"]
        except (OSError, ValueError):
            continue
        for name, source in wanted.items():
            if snapshot.get(source, {}).get("count"):
                seen[name].append(snapshot[source]["p50"] * 1e3)
    return {name: statistics.median(v) if v else 0.0 for name, v in seen.items()}


def layers_from_events(events, stamps: dict, clock_offset: float) -> dict:
    """Transfer accounting and the per-task lifecycle from the event log.

    ``stamps`` maps task id -> (submit, result) client stamps; adding
    ``clock_offset`` puts event times on the client's clock.
    """
    moved = {"manager": [0, 0], "peer": [0, 0]}
    unpacks = 0
    started: dict = {}
    ended: dict = {}
    for ev in events:
        if ev.kind == "transfer_end":
            if ev.category == "@manager":
                kind = "manager"
            elif ev.category and not ev.category.startswith(("@", "url:")):
                kind = "peer"
            else:
                continue
            moved[kind][0] += ev.size
            moved[kind][1] += 1
        elif ev.kind == "stage_start":
            unpacks += 1
        elif ev.kind == "task_start":
            started.setdefault(ev.task, ev.time + clock_offset)
        elif ev.kind == "task_end":
            ended[ev.task] = ev.time + clock_offset
    to_start, running, to_result = [], [], []
    for task_id, (submit, result) in stamps.items():
        if task_id in started and task_id in ended:
            to_start.append(started[task_id] - submit)
            running.append(ended[task_id] - started[task_id])
            to_result.append(result - ended[task_id])
    return {
        "staging.unpacks": unpacks,
        "transfers.manager_bytes": moved["manager"][0],
        "transfers.manager_count": moved["manager"][1],
        "transfers.peer_bytes": moved["peer"][0],
        "transfers.peer_count": moved["peer"][1],
        "lifecycle.submit_to_start_p50_ms": harness.percentile(to_start, 50) * 1e3,
        "lifecycle.submit_to_start_p95_ms": harness.percentile(to_start, 95) * 1e3,
        "lifecycle.start_to_end_p50_ms": harness.percentile(running, 50) * 1e3,
        "lifecycle.end_to_result_p50_ms": harness.percentile(to_result, 50) * 1e3,
    }


def report_service(state_dir: str, tenants: list, result: dict, params: dict) -> dict:
    """Service mode: the daemon's own trace file, metrics dump and txn log."""
    trace_path = os.path.join(state_dir, "trace.json")
    with open(trace_path) as f:
        doc = json.load(f)
    os.replace(
        trace_path,
        os.path.join(params["root"], f"trace-{params['phase']}-daemon.json"),
    )
    layers = layers_from_trace(doc)
    with open(os.path.join(state_dir, "metrics.json")) as f:
        layers.update(layers_from_metrics(json.load(f)["metrics"]))
    _header, events = sut.read_transactions(os.path.join(state_dir, "service.jsonl"))
    # the log runs on the manager's clock; a tenant's attach appears on
    # both clocks, which pins the offset to within half a round trip
    attach = next(
        (ev for ev in events if ev.kind == "client_attach"
         and ev.category == tenants[0].name),
        None,
    )
    offset = sum(tenants[0].attach_window) / 2.0 - attach.time if attach else 0.0
    stamps = {
        task_id: (sent, received)
        for tenant in tenants
        for task_id, sent, received in tenant.call_stamps
    }
    layers.update(layers_from_events(events, stamps, offset))
    layers.update(layers_from_workers(glob.glob(os.path.join(state_dir, "worker-*"))))
    layers["loadgen.cpu_s"] = result["loadgen_cpu_s"]
    layers["loadgen.max_lateness_ms"] = result["max_lateness_ms"]
    layers["manager.cpu_s"] = result["manager_cpu_s"]
    layers["worker.cpu_s"] = result["worker_cpu_s"]
    return layers


# ---------------------------------------------------------------------------
# the per-layer result of a traced run (parent side)
# ---------------------------------------------------------------------------

#: combined as the larger of the phases; everything else is summed
_DISTRIBUTIONS = ("_p50_", "_p95_", "_p99_", "_mean", "hit_ratio", "peak_", "max_")


def merge_phases(phase_layers: list) -> dict:
    merged: dict = {}
    for layers in phase_layers:
        for name, value in layers.items():
            if any(tag in name for tag in _DISTRIBUTIONS):
                merged[name] = max(merged.get(name, 0.0), value)
            else:
                merged[name] = merged.get(name, 0.0) + value
    return merged


def summarize(workload: str, results: dict, values: dict, overhead: float,
              micro: dict, root: str) -> dict:
    """Every per-layer number of one traced run, by metric name."""
    layers = merge_phases([r["layers"] for r in results.values()])
    cpu = layers.get("manager.cpu_s", 0.0)
    layers["trace.residual_frac"] = (
        1.0 - layers.pop("trace.attributed_s", 0.0) / cpu if cpu else 0.0
    )
    layers["calib.slowdown"] = sum(r["slowdown"] for r in results.values()) / len(results)
    layers["trace.overhead_frac"] = overhead
    for key in ("job_latency_p95_ms", "manager_bytes_frac", "virtual_makespan_s"):
        layers[key] = values.get(key, 0.0)
    layers.update(micro)
    # one file per workload: every process of every phase, spans and all
    doc = {"workload": workload, "phases": {}}
    for path in sorted(glob.glob(os.path.join(root, "trace-*.json"))):
        phase, process = os.path.basename(path)[len("trace-"):-len(".json")].split("-", 1)
        with open(path) as f:
            doc["phases"].setdefault(phase, {})[process] = json.load(f)
    with open(os.path.join(harness.OUT, f"trace-{workload}.json"), "w") as f:
        json.dump(doc, f, separators=(",", ":"))
    return collections.defaultdict(float, {k: float(v) for k, v in layers.items()})
