"""Process plumbing shared by every workload.

Each phase of a workload runs in a fresh child interpreter started in
its own session, so everything the phase spawns (scripted-fleet host,
daemon, workers, library instances) shares one process group that the
parent can reap on success, failure and Ctrl-C alike.  All state lives
under one temp root inside the checkout, removed on exit.  A phase
fails the run if a process of its group survives it or if the
interpreter that hosted the manager ends with more open descriptors or
threads than it started with.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time

from perfbench import sut

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
RUN_PY = os.path.join(HERE, "run.py")

#: a phase that has not finished by now is stuck (contract: 180 s a run)
PHASE_TIMEOUT = 150.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class PhaseError(RuntimeError):
    """A phase child crashed, hung, or printed no result."""


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def temp_root():
    """One directory for everything a run writes; gone when it ends."""
    path = os.path.join(OUT, f"tmp-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def reap_group(pgid: int, grace: float = 2.0) -> bool:
    """Make sure process group ``pgid`` is empty; True if it already was.

    A clean phase has waited for everything it started, so finding the
    group alive after ``grace`` is a hygiene failure: the leftovers are
    terminated, then killed.
    """
    deadline = time.monotonic() + grace
    while _group_alive(pgid):
        if time.monotonic() >= deadline:
            break
        time.sleep(0.02)
    else:
        return True
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            break
        deadline = time.monotonic() + 3.0
        while _group_alive(pgid) and time.monotonic() < deadline:
            time.sleep(0.05)
    return False


def run_phase(workload: str, phase: str, params: dict) -> dict:
    """Run one phase in a fresh interpreter; returns its result dict.

    ``spawned_at`` (parent clock, shared with the child through
    ``time.time``) lets a phase charge interpreter start-up and imports
    to its set-up time.
    """
    params = dict(params, spawned_at=time.time(), phase=phase)
    argv = [
        sys.executable, RUN_PY, "--phase", f"{workload}:{phase}",
        "--params", json.dumps(params),
    ]
    # anything the system puts in a temp file stays inside the run's root
    env = dict(sut.child_env(), TMPDIR=params["root"])
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, env=env, start_new_session=True
    )
    try:
        try:
            stdout, _ = proc.communicate(timeout=PHASE_TIMEOUT)
        except subprocess.TimeoutExpired:
            raise PhaseError(f"{workload}:{phase} exceeded {PHASE_TIMEOUT:.0f}s")
    finally:
        # also the Ctrl-C / crash path: nothing of the phase outlives it
        if proc.poll() is None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGTERM)
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        clean = reap_group(proc.pid)
    if proc.returncode != 0:
        raise PhaseError(f"{workload}:{phase} exited with {proc.returncode}")
    lines = stdout.decode().strip().splitlines()
    if not lines:
        raise PhaseError(f"{workload}:{phase} printed no result")
    result = json.loads(lines[-1])
    result["survivors"] = not clean
    return result


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def child_main(target: str, params: dict) -> int:
    """Entry of a phase child: run ``workload:phase`` and print its result."""
    import importlib

    workload, _, phase = target.partition(":")
    module = importlib.import_module(f"perfbench.{workload}")
    fds, threads = open_fds(), threading.active_count()
    result = getattr(module, f"phase_{phase}")(params)
    # teardown threads (batch flushers, senders) may need a beat to exit
    deadline = time.monotonic() + 3.0
    while (
        open_fds() > fds or threading.active_count() > threads
    ) and time.monotonic() < deadline:
        time.sleep(0.05)
    result["leaked_fds"] = max(0, open_fds() - fds)
    result["leaked_threads"] = max(0, threading.active_count() - threads)
    result.setdefault("peak_rss_mb", self_peak_rss_mb())
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set of another live process, from /proc."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise PhaseError(f"no VmHWM for pid {pid}")


def _stat_fields(pid: int) -> list[str]:
    with open(f"/proc/{pid}/stat") as f:
        # comm may contain spaces; fields after the closing paren are fixed
        return f.read().rsplit(")", 1)[1].split()


def pid_cpu_s(pid: int) -> float:
    """User+system CPU seconds of a live process and its reaped children."""
    fields = _stat_fields(pid)
    utime, stime, cutime, cstime = (int(x) for x in fields[11:15])
    return (utime + stime + cutime + cstime) / _CLK_TCK


def descendants(pid: int) -> list[int]:
    """Live descendants of ``pid`` (children first), from /proc."""
    parent_of = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                parent_of[int(entry)] = int(_stat_fields(int(entry))[1])
            except (OSError, IndexError, ValueError):
                continue
    found, frontier = [], [pid]
    while frontier:
        nxt = [p for p, pp in parent_of.items() if pp in frontier]
        found.extend(nxt)
        frontier = nxt
    return found


def wait_for(predicate, timeout: float, what: str) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise PhaseError(f"timed out waiting for {what}")
        time.sleep(0.005)


def stop_process(proc: subprocess.Popen, timeout: float = 20.0) -> None:
    """Terminate a child and wait until it has ended, escalating to kill."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# ---------------------------------------------------------------------------
# contention-normalised time
# ---------------------------------------------------------------------------

#: thread-CPU seconds one ``_spin`` costs on the reference box when
#: nothing else contends for the core; ``slowdown`` is relative to this
REFERENCE_SPIN_S = 1.6e-3
CALIBRATION_INTERVAL_S = 0.2


def _spin() -> float:
    """Thread-CPU seconds of a fixed pure-Python loop.

    CPU time, not wall time: waiting for the GIL or being descheduled by
    the benchmark's own processes does not count, only how fast this
    core retires Python bytecode right now.
    """
    started = time.thread_time()
    x = 0
    for i in range(40_000):
        x += i * i % 7
    return time.thread_time() - started


class Calibration:
    """Measures how slow the machine is while a timed window runs.

    The sandbox this benchmark runs in is a small VM on a shared host:
    for seconds to minutes at a time every process runs 1.2-1.9x slower
    (no steal is reported; CPU time stretches with wall time), which
    swamps any bound below 25 %.  While a window is open, an interval
    timer interrupts the main thread every ``CALIBRATION_INTERVAL_S``
    and times ``_spin``; ``slowdown`` is the mean cost over the window
    relative to ``REFERENCE_SPIN_S``.  Phases report time-based metrics
    multiplied (rates) or divided (durations) by it, i.e. in seconds of
    an uncontended core — the spin is ~1 % of the window and is the same
    code whatever the repository does, so a change to the system cannot
    move it.  Main thread only (signal handlers).
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: ``perf_counter`` at entry, and wall seconds the window lasted
        self.started = self.elapsed = 0.0

    def _tick(self, _signum, _frame) -> None:
        self.samples.append(_spin())

    def __enter__(self) -> "Calibration":
        self.samples.append(_spin())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(
            signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S
        )
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self.started
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(_spin())

    @property
    def slowdown(self) -> float:
        return sum(self.samples) / len(self.samples) / REFERENCE_SPIN_S

    def setup_sample(self, boot: float) -> float:
        """One set-up sample: this window plus the interpreter's own
        start-up (``boot``), in uncontended seconds."""
        return (boot + self.elapsed) / self.slowdown


def boot_seconds(params: dict) -> float:
    """Seconds from the parent spawning this phase child until now —
    interpreter start and imports, which every set-up sample carries as
    a user's script would (work moved into import shows there too)."""
    return time.time() - params["spawned_at"]


def rate(result: dict) -> float:
    """Operations per uncontended second of one phase."""
    return result["ops"] / result["elapsed_s"] * result["slowdown"]


def latency_ms(seconds: list) -> dict:
    """The latency percentiles every timed phase reports, in ms."""
    return {
        f"latency_p{q}_ms": percentile(seconds, q) * 1e3 for q in (50, 90, 95)
    }


def normalised_latency(result: dict, virtual: bool = False) -> dict:
    """A phase's job-latency metrics in uncontended milliseconds
    (``virtual`` latencies are simulated time and stay as they are)."""
    scale = 1.0 if virtual else result["slowdown"]
    return {
        f"job_latency_p{q}_ms": result[f"latency_p{q}_ms"] / scale for q in (50, 90, 95)
    }


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """``q``-th percentile (0..100) by nearest rank on a sorted copy."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    idx = min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1))))
    return ordered[idx]
