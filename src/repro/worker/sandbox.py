"""Task sandboxes: private per-task namespaces (paper Fig. 4).

Each task executes in a sandbox directory where every input object is
linked in under the user-visible name the command expects, and from
which declared outputs are moved into the cache when the task
completes.  The sandbox is deleted afterwards, so the only persistent
data objects are those explicitly extracted from the completed task.

Inputs are hard-linked when possible (same filesystem, regular file)
and symlinked otherwise; either way the cache object is never copied,
which is how concurrent tasks on one worker share immutable inputs at
zero storage cost.
"""

from __future__ import annotations

import os
import shutil
from typing import Iterable

from repro.core.files import CacheLevel
from repro.worker.cache import WorkerCache

__all__ = ["Sandbox", "SandboxError"]


class SandboxError(RuntimeError):
    """Sandbox setup or output harvesting failed."""


class Sandbox:
    """One task's private execution directory."""

    def __init__(self, root: str, task_id: str) -> None:
        self.task_id = task_id
        self.path = os.path.join(os.path.abspath(root), f"sandbox-{task_id}")
        os.makedirs(self.path, exist_ok=True)

    def link_inputs(
        self, cache: WorkerCache, inputs: Iterable[tuple[str, str]]
    ) -> None:
        """Materialize ``(sandbox_name, cache_name)`` pairs inside the sandbox.

        ``sandbox_name`` may contain subdirectories (``data/ref.fa``);
        parents are created.  Raises :class:`SandboxError` if an input
        object is missing from the cache — the manager must never let
        that happen (it dispatches only when inputs are present).
        """
        for sandbox_name, cache_name in inputs:
            if not cache.has(cache_name):
                raise SandboxError(
                    f"input {cache_name} for task {self.task_id} not in cache"
                )
            dest = self._resolve(sandbox_name)
            os.makedirs(os.path.dirname(dest), exist_ok=True)
            src = cache.path_of(cache_name)
            if os.path.isdir(src):
                os.symlink(src, dest)
            else:
                try:
                    os.link(src, dest)
                except FileNotFoundError:
                    # removed since ``has`` (an unlink or an eviction on
                    # another thread): a symlink would dangle
                    raise SandboxError(
                        f"input {cache_name} for task {self.task_id} left the cache"
                    ) from None
                except OSError:
                    os.symlink(src, dest)

    def harvest_outputs(
        self,
        cache: WorkerCache,
        outputs: Iterable[tuple[str, str, CacheLevel]],
        now: float = 0.0,
    ) -> list[str]:
        """Move declared outputs into the cache; returns cached names.

        Raises :class:`SandboxError` naming the first declared output
        the task failed to produce.
        """
        cached = []
        for sandbox_name, cache_name, level in outputs:
            src = self._resolve(sandbox_name)
            if not os.path.lexists(src):
                raise SandboxError(
                    f"task {self.task_id} did not produce declared output "
                    f"{sandbox_name!r}"
                )
            staged = cache.staging_path(cache_name)
            shutil.move(src, staged)
            cache.insert_from(staged, cache_name, level, now)
            cached.append(cache_name)
        return cached

    def _resolve(self, sandbox_name: str) -> str:
        """Resolve a sandbox-relative name, refusing escapes."""
        dest = os.path.normpath(os.path.join(self.path, sandbox_name))
        if not dest.startswith(self.path + os.sep):
            raise SandboxError(
                f"sandbox name {sandbox_name!r} escapes the sandbox"
            )
        return dest

    def disk_usage(self) -> int:
        """Bytes written inside the sandbox (excluding linked inputs)."""
        total = 0
        for root, _dirs, files in os.walk(self.path):
            for name in files:
                fp = os.path.join(root, name)
                if os.path.islink(fp):
                    continue
                try:
                    st = os.stat(fp)
                except OSError:
                    continue
                if st.st_nlink > 1:
                    continue  # hard-linked input, not task-produced data
                total += st.st_size
        return total

    def destroy(self) -> None:
        """Delete the sandbox and everything left inside it."""
        shutil.rmtree(self.path, ignore_errors=True)
