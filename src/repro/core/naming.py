"""Cache-name generation: content-addressable storage naming (paper §3.2).

Every object in a worker cache has a unique name assigned by the
manager.  The *scope* of the name follows the file's declared lifetime:

* ``TASK`` / ``WORKFLOW`` files are visible only within one workflow
  run, so the manager generates a random per-run name and guarantees no
  collision within the run.  They are deleted at workflow end, so a
  later run choosing the same random name cannot observe stale data.
* ``WORKER`` files outlive the workflow and may be shared between
  managers, so they need perpetually-unique *content-addressable*
  names, computed as follows:

  - plain file: MD5 of its content;
  - directory: a Merkle tree — each file hashed as normal, each
    directory hashed as a small document listing its entries' names,
    types, sizes, and child hashes (paper Fig. 7);
  - buffer: MD5 of the buffer content (always cheap, always applied);
  - URL: a checksum from the response headers if the server provides
    one, else the hash of (URL, ETag, Last-Modified) — these headers
    are guaranteed to change when content changes, so stale reuse is
    impossible — else download-and-hash as a last resort;
  - mini-task and temp files: the Merkle hash of the *producing task
    specification* (command, environment, resources, and input cache
    names, recursively), since their content is unknown before they run.
"""

from __future__ import annotations

import json
import os
import random
import uuid
from typing import Callable, Mapping, Optional, Sequence

from repro.core.files import (
    BufferFile,
    CacheLevel,
    File,
    LocalFile,
    MiniTaskFile,
    TempFile,
    URLFile,
)
from repro.util.hashing import hash_bytes, hash_file

__all__ = [
    "directory_merkle",
    "local_cache_name",
    "buffer_cache_name",
    "url_cache_name",
    "task_spec_hash",
    "task_merkle",
    "Namer",
]

#: header keys (lower-case) that carry a usable content checksum
_CHECKSUM_HEADERS = ("content-md5", "x-checksum-md5", "x-checksum-sha1")


def directory_merkle(path: str | os.PathLike) -> str:
    """Hash a directory tree into a single digest (paper Fig. 7).

    Each regular file contributes its content hash; each directory is
    serialized as a JSON document of ``(entry name, type, size, child
    hash)`` rows in sorted order — so the result is independent of
    filesystem iteration order but sensitive to any rename, content
    change, or size change anywhere in the tree.  Symlinks hash their
    target path rather than following it, mirroring how they are
    transferred; an empty directory hashes its (empty) document, so it
    still changes the parent's hash; non-UTF-8 entry names and symlink
    targets go through ``os.fsdecode``/``os.fsencode`` (surrogateescape
    round-trips the raw bytes); sockets, FIFOs, and devices hash as
    bare ``"other"`` rows rather than crashing the walk.
    """
    entries = []
    with os.scandir(path) as it:
        # DirEntry names are surrogateescape-decoded str on POSIX, so
        # sorting by name is deterministic even for non-UTF-8 entries,
        # and json's ensure_ascii escaping keeps the document encodable
        for entry in sorted(it, key=lambda e: e.name):
            if entry.is_symlink():
                child = hash_bytes(os.fsencode(os.readlink(entry.path)))
                entries.append([entry.name, "link", 0, child])
            elif entry.is_dir():
                child = directory_merkle(entry.path)
                entries.append([entry.name, "dir", 0, child])
            elif entry.is_file():
                st = entry.stat()
                child = hash_file(entry.path)
                entries.append([entry.name, "file", st.st_size, child])
            else:
                # socket / fifo / device: no content to transfer; the
                # row still records its existence and name
                entries.append([entry.name, "other", 0, ""])
    document = json.dumps(entries, separators=(",", ":")).encode()
    return hash_bytes(document)


def local_cache_name(path: str | os.PathLike) -> str:
    """Content-addressable name for a local file or directory."""
    if os.path.isdir(path):
        return f"dir-md5-{directory_merkle(path)}"
    return f"file-md5-{hash_file(path)}"


def buffer_cache_name(data: bytes) -> str:
    """Content-addressable name for an in-memory buffer."""
    return f"buffer-md5-{hash_bytes(data)}"


def url_cache_name(
    url: str,
    headers: Optional[Mapping[str, str]] = None,
    download: Optional[Callable[[str], bytes]] = None,
) -> str:
    """Derive a strong cache name for a remote URL (paper §3.2).

    Preference order: a checksum header if the archive offers one; then
    a hash of URL + ETag + Last-Modified (not content-derived, but these
    change whenever the content does, so staleness is impossible); and
    only as a last resort a full ``download`` and content hash.

    Raises ``ValueError`` if no headers identify the object and no
    ``download`` callback was supplied.
    """
    hdrs = {k.lower(): v for k, v in (headers or {}).items()}
    for key in _CHECKSUM_HEADERS:
        if key in hdrs:
            return f"url-sum-{hash_bytes(hdrs[key].encode())}"
    etag = hdrs.get("etag")
    modified = hdrs.get("last-modified")
    if etag or modified:
        doc = json.dumps([url, etag, modified], separators=(",", ":")).encode()
        return f"url-meta-{hash_bytes(doc)}"
    if download is not None:
        return f"url-md5-{hash_bytes(download(url))}"
    raise ValueError(
        f"cannot name url {url!r}: no checksum/etag/last-modified header "
        "and no download fallback provided"
    )


def task_spec_hash(
    command: str,
    input_names: Sequence[tuple[str, str]],
    resources: Optional[Mapping] = None,
    env: Optional[Mapping[str, str]] = None,
) -> str:
    """Merkle hash of a task specification (paper §3.2, MiniTask naming).

    ``input_names`` is a sequence of ``(remote_name, cache_name)`` pairs:
    the cache names embed the hashes of the inputs, so the hash is
    recursive through arbitrarily deep mini-task chains.  Input order
    does not matter; the mapping of sandbox name to content does.
    """
    document = json.dumps(
        {
            "command": command,
            "inputs": sorted(list(p) for p in input_names),
            "resources": dict(resources or {}),
            "env": sorted((env or {}).items()),
        },
        separators=(",", ":"),
        sort_keys=True,
    ).encode()
    return hash_bytes(document)


def task_merkle(task) -> str:
    """Merkle hash of a *full task recipe*, for any task kind (§3.2).

    Where :func:`task_spec_hash` names a single MiniTask/TempFile
    product, this generalizes the idea to whole submitted tasks so
    results can be memoized: two tasks with equal merkles are the same
    computation over the same content.  The hash covers the task kind,
    its command (or invocation identity), the ``(sandbox, cache_name)``
    mapping of every input — cache names embed content hashes, so the
    merkle is recursive through lineage — the output sandbox names,
    resources, and environment.  Inputs must already be named.

    Kind-specific canonicalization:

    * ``PythonTask`` — the literal command embeds ``sys.executable``,
      which is host-specific noise; the serialized function + arguments
      ride the content-hashed payload *input*, so a fixed token stands
      in for the command.
    * ``FunctionCall`` — no command runs; the library name, function
      name, and portably-serialized arguments are the identity.
    * ``MiniTask`` / plain ``Task`` — the command line as declared.
    """
    from repro.core.library import FunctionCall
    from repro.core.task import MiniTask, PythonTask

    input_names = []
    for remote_name, f in task.inputs:
        if f.cache_name is None:
            raise RuntimeError(
                f"input {f.label()} of {task.task_id or task.command!r} unnamed"
            )
        input_names.append([remote_name, f.cache_name])
    if isinstance(task, PythonTask):
        kind, command = "python", "@pytask"
    elif isinstance(task, FunctionCall):
        # remote submissions carry an opaque pre-serialized argument
        # blob the manager never unpickles; its bytes are the identity
        if getattr(task, "args_blob", None) is not None:
            payload = task.args_blob
        else:
            from repro.protocol import serialization as ser

            # plain dumps, not dumps_portable: the portable envelope
            # embeds the sender's sys.path — host noise, not identity
            payload = ser.dumps(
                {"args": list(task.args), "kwargs": dict(task.kwargs)}
            )
        kind = "call"
        command = (
            f"{task.library_name}.{task.function_name}:{hash_bytes(payload)}"
        )
    elif isinstance(task, MiniTask):
        kind, command = "mini", task.command
    else:
        kind, command = "command", task.command
    document = json.dumps(
        {
            "kind": kind,
            "command": command,
            "inputs": sorted(input_names),
            "outputs": sorted(rn for rn, _ in task.outputs),
            "resources": task.resources.to_dict(),
            "env": sorted(task.env.items()),
        },
        separators=(",", ":"),
        sort_keys=True,
    ).encode()
    return hash_bytes(document)


def _sandbox_name(f: File, task) -> str:
    """The sandbox name ``task`` gives its output ``f``.

    A content-derived output name hashes it, so a file that is not one
    of the task's outputs has no such name: anything put in its place
    (a per-process counter, say) would make the name depend on the run
    rather than on the recipe.
    """
    for sandbox, out in task.outputs:
        if out is f:
            return sandbox
    raise ValueError(
        f"{f.label()} is not an output of {task.task_id or task.command!r}"
    )


class Namer:
    """Per-manager naming policy: assigns a cache name to every file.

    One instance exists per workflow run.  Random (non-content) names
    are salted with a per-run nonce, so names from different runs can
    never collide even across managers sharing workers; ``seed`` makes
    a run's random names reproducible for tests and the simulator.
    Nothing here remembers a name: the manager's registry sees every
    declared one and refuses a second file under a random name.
    """

    def __init__(self, seed: Optional[int] = None, run_nonce: Optional[str] = None):
        self._rng = random.Random(seed)
        self.run_nonce = run_nonce or uuid.uuid4().hex[:12]
        #: optional callbacks used to name URL files
        self.header_fetcher: Optional[Callable[[str], Mapping[str, str]]] = None
        self.url_downloader: Optional[Callable[[str], bytes]] = None

    def _random_name(self, prefix: str) -> str:
        """A fresh per-run random name: 64 random bits under the run's
        nonce (the registry refuses the one-in-2**64 repeat)."""
        return f"{prefix}-rnd-{self.run_nonce}-{self._rng.getrandbits(64):016x}"

    def _salt(self, level: CacheLevel) -> str:
        """Run-nonce salt for spec-hashed names that must not outlive the run."""
        return "" if level == CacheLevel.WORKER else f"-{self.run_nonce}"

    def assign(self, f: File) -> str:
        """Compute, set, and return the cache name for ``f``.

        Idempotent: a file already named keeps its name.  For mini-task
        files, the producing task's inputs must already be named.
        """
        if f.cache_name is None:
            f.cache_name = self._name_for(f)
        return f.cache_name

    def _name_for(self, f: File) -> str:
        # the kinds are siblings: the order only decides how many tests
        # run, so the kind declared most is tested first
        if isinstance(f, TempFile):
            # named when bound to a producing task; placeholder until then
            return self._random_name("temp")
        if isinstance(f, BufferFile):
            # hashing a buffer is free; always content-address it
            return buffer_cache_name(f.data)
        if isinstance(f, LocalFile):
            if f.cache_level == CacheLevel.WORKER:
                name = local_cache_name(f.path)
            else:
                name = self._random_name("local")
            if f.size is None and os.path.isfile(f.path):
                f.size = os.path.getsize(f.path)
            return name
        if isinstance(f, URLFile):
            if f.cache_level == CacheLevel.WORKER:
                headers = self.header_fetcher(f.url) if self.header_fetcher else {}
                return url_cache_name(f.url, headers, self.url_downloader)
            return self._random_name("url")
        if isinstance(f, MiniTaskFile):
            spec = self._mini_task_spec(f)
            return f"task-md5-{spec}{self._salt(f.cache_level)}"
        return self._random_name("file")

    def _mini_task_spec(self, f: MiniTaskFile) -> str:
        task = f.mini_task
        input_names = []
        for remote_name, dep in task.inputs:
            input_names.append((remote_name, self.assign(dep)))
        f.dependencies = tuple(name for _, name in input_names)
        return task_spec_hash(
            task.command, input_names, task.resources.to_dict(), task.env
        )

    def name_temp_output(self, f: TempFile, producing_task) -> str:
        """(Re)name a temp file from its producing task's spec hash.

        Called when a temp file is attached as a task output, per the
        paper: "a TempFile ... is also named by computing the hash of
        the producing task".  Salted for non-worker lifetimes.
        """
        input_names = [
            (remote_name, self.assign(dep)) for remote_name, dep in producing_task.inputs
        ]
        spec = task_spec_hash(
            producing_task.command,
            input_names,
            producing_task.resources.to_dict(),
            producing_task.env,
        )
        # distinguish multiple temp outputs of one task by output name
        out_name = _sandbox_name(f, producing_task)
        f.cache_name = (
            f"temp-md5-{hash_bytes((spec + ':' + out_name).encode())}"
            f"{self._salt(f.cache_level)}"
        )
        f.producer_task_id = producing_task.task_id
        return f.cache_name

    def name_task_output(self, f: File, task, merkle: str) -> str:
        """(Re)name a memo-eligible task's output from the task merkle.

        Memoized outputs must land on the *same* cache name in every
        run and every tenant — that identity is what lets a later
        identical submission adopt the recorded result — so the name is
        derived purely from the task merkle plus the output's sandbox
        name, never salted with the run nonce.
        """
        out_name = _sandbox_name(f, task)
        f.cache_name = f"memo-md5-{hash_bytes((merkle + ':' + out_name).encode())}"
        if isinstance(f, TempFile):
            f.producer_task_id = task.task_id
        return f.cache_name
