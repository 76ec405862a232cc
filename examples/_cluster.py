"""Shared helper for examples: spawn local workers for a manager.

Workers are separate OS processes running the real worker (the same
thing ``repro-worker --manager host:port`` starts), each with its own
cache directory — the paper's architecture compressed onto one machine.
"""

from __future__ import annotations

import atexit
import subprocess
import sys
import tempfile
import time


def start_workers(manager, count=2, cores=4, workdir_root=None, disk=4000):
    """Launch ``count`` worker processes and wait for them to register."""
    root = workdir_root or tempfile.mkdtemp(prefix="repro-workers-")
    procs = []
    for i in range(count):
        cmd = [
            sys.executable,
            "-m",
            "repro.worker.cli",
            "--manager",
            f"{manager.host}:{manager.port}",
            "--workdir",
            f"{root}/w{i}",
            "--cores",
            str(cores),
            "--disk",
            str(disk),
        ]
        procs.append(subprocess.Popen(cmd))

    def cleanup():
        for p in procs:
            if p.poll() is None:
                p.terminate()

    atexit.register(cleanup)
    deadline = time.time() + 30
    while time.time() < deadline:
        if len(manager.workers) >= count:
            return procs
        time.sleep(0.05)
    raise TimeoutError("workers failed to register")
