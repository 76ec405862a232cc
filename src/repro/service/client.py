"""Blocking client for a service-mode manager, plus its CLI.

A :class:`ServiceClient` speaks the client-session protocol over one
framed TCP connection: a ``client_hello`` handshake (tenant label +
optional project password), content declarations, task submission,
and streamed completion notices.  Replies and asynchronous notices
share the connection, so every receive funnels through :meth:`_pump`,
which files ``task_result``/``workflow_done`` notices away while a
caller waits for its specific reply.

The CLI (``python -m repro.service.client`` / ``repro-client``) drives
small canned workflows against a running service — the CI smoke job
uses ``demo`` to show two tenants sharing one content-addressed input.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import itertools
import json
import select
import sys
import time
from typing import Callable, Optional, Sequence

from repro.core.resultref import ResultProxy, ResultRef, scan_refs
from repro.protocol import serialization as ser
from repro.protocol.connection import Connection, encode_frame
from repro.protocol.messages import INLINE_ARGS_MAX, M

__all__ = ["ServiceClient", "ClientError", "main"]


class ClientError(RuntimeError):
    """The service refused a request (``client_reject``)."""


class ServiceClient:
    """One tenant's attachment to a running service-mode manager."""

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str,
        password: Optional[str] = None,
        session: Optional[str] = None,
        timeout: float = 60.0,
    ) -> None:
        self.tenant = tenant
        self.conn = Connection.connect(host, port, timeout=timeout)
        self.conn.settimeout(timeout)
        self._refs = itertools.count(1)
        #: task_id -> task_result notice, filled as notices stream in
        self.results: dict[str, dict] = {}
        self.workflow_done = False
        #: tasks this client has had accepted; with the service's
        #: cumulative delivery count (welcome "done" + workflow_done
        #: "done") this tells a real completion notice from one that
        #: merely caught the outstanding set momentarily empty between
        #: two incremental submits
        self._accepted = 0
        self._done_base = 0
        self._replies: collections.deque = collections.deque()
        self._files: collections.deque = collections.deque()
        hello = {"type": M.CLIENT_HELLO, "tenant": tenant}
        if password is not None:
            hello["password"] = password
        if session is not None:
            hello["session"] = session
        self.conn.send_message(hello)
        welcome = self._await(M.WELCOME)
        self.session = welcome["session"]
        self.project = welcome.get("project")
        self._done_base = int(welcome.get("done", 0))
        #: completion notices the service could not deliver while we were
        #: away (detached, or the manager restarted); results stay
        #: fetchable by cache name even though the notices are gone
        self.missed = int(welcome.get("missed", 0))
        #: True when this session was restored from a manager's journal
        #: after a crash/restart rather than held live in memory
        self.recovered = bool(welcome.get("recovered", False))

    # -- receive plumbing ---------------------------------------------

    def _pump(self, wait: Optional[float] = None) -> bool:
        """Receive one message, filing notices; replies join a queue.

        With ``wait`` set, blocks on the socket for at most that long
        and returns False if nothing arrived — deadline loops sleep in
        the kernel instead of spinning recv against the socket timeout.
        """
        if wait is not None:
            ready, _, _ = select.select([self.conn.fileno()], [], [], max(0.0, wait))
            if not ready:
                return False
        msg = self.conn.recv_message()
        mtype = msg.get("type")
        if mtype == M.TASK_RESULT:
            self.results[msg["task_id"]] = msg
        elif mtype == M.WORKFLOW_DONE:
            done = msg.get("done")
            if done is None or int(done) >= self._done_base + self._accepted:
                self.workflow_done = True
        elif mtype == M.FILE_DATA:
            payload = (
                self.conn.recv_bytes(int(msg["size"])) if msg.get("found") else None
            )
            self._files.append((msg, payload))
        elif mtype == M.CLIENT_REJECT:
            raise ClientError(msg.get("reason", "rejected"))
        else:
            self._replies.append(msg)
        return True

    def _await(self, mtype: str, ref=None) -> dict:
        """Block until the reply of ``mtype`` (and ``ref``, if given)."""
        while True:
            for i, msg in enumerate(self._replies):
                if msg.get("type") == mtype and (ref is None or msg.get("ref") == ref):
                    del self._replies[i]
                    return msg
            self._pump()

    # -- declarations ---------------------------------------------------

    def declare_buffer(self, data: "bytes | str", level: str = "workflow") -> dict:
        """Declare literal bytes; returns the ``file_declared`` reply
        (``cache_name``, ``cache_hit``)."""
        if isinstance(data, str):
            data = data.encode()
        ref = next(self._refs)
        spec = {"kind": "buffer", "size": len(data), "level": level}
        self.conn.send_message({"type": M.DECLARE_FILE, "ref": ref, "spec": spec})
        if data:
            self.conn.send_bytes(data)
        return self._await(M.FILE_DECLARED, ref)

    def declare_url(self, url: str, level: str = "workflow") -> dict:
        ref = next(self._refs)
        spec = {"kind": "url", "url": url, "level": level}
        self.conn.send_message({"type": M.DECLARE_FILE, "ref": ref, "spec": spec})
        return self._await(M.FILE_DECLARED, ref)

    def declare_local(self, path: str, level: str = "workflow") -> dict:
        """Declare a file on the *manager host* by path.

        Refused unless the service was started with a
        ``client_local_root``; the path must resolve inside it
        (relative paths are joined against the root).
        """
        ref = next(self._refs)
        spec = {"kind": "local", "path": path, "level": level}
        self.conn.send_message({"type": M.DECLARE_FILE, "ref": ref, "spec": spec})
        return self._await(M.FILE_DECLARED, ref)

    # -- submission ------------------------------------------------------

    def submit(
        self,
        command: str,
        inputs: Sequence = (),
        outputs: Sequence = (),
        **extra,
    ) -> dict:
        """Submit one command task; returns the ``task_accepted`` reply
        (``task_id`` plus the sandbox-name → cache-name output map).

        ``inputs`` are ``(sandbox_name, cache_name)`` pairs naming
        previously declared content; ``outputs`` are sandbox names the
        command produces.
        """
        ref = next(self._refs)
        spec = {
            "command": command,
            "inputs": [list(pair) for pair in inputs],
            "outputs": list(outputs),
        }
        spec.update(extra)
        self.conn.send_message({"type": M.SUBMIT_TASK, "ref": ref, "spec": spec})
        reply = self._await(M.TASK_ACCEPTED, ref)
        self._accepted += 1
        self.workflow_done = False  # the workflow has outstanding work again
        return reply

    def submit_dag(self, specs: Sequence[dict]) -> list[dict]:
        """Submit several task specs in one request; returns one
        ``task_accepted`` reply per task, in submission order.

        A spec's outputs may carry a key (``["out.txt", "k"]``) that a
        later spec's inputs reference as ``["in.txt", {"key": "k"}]``.
        """
        ref = next(self._refs)
        self.conn.send_message(
            {"type": M.SUBMIT_DAG, "ref": ref, "tasks": list(specs)}
        )
        replies = [
            self._await(M.TASK_ACCEPTED, f"{ref}[{i}]") for i in range(len(specs))
        ]
        self._accepted += len(replies)
        self.workflow_done = False
        return replies

    # -- serverless calls -------------------------------------------------

    def create_library(
        self, name: str, functions, function_slots: int = 1
    ) -> dict:
        """Install a serverless library at the service.

        ``functions`` is a dict of name → callable (or a sequence of
        callables, keyed by ``__name__``); the serialized table ships
        with the request and is idempotent — re-creating a library with
        the same function set is a no-op, a different set is refused.
        """
        if not isinstance(functions, dict):
            functions = {fn.__name__: fn for fn in functions}
        payload = ser.dumps_portable(dict(functions))
        ref = next(self._refs)
        self.conn.send_message(
            {
                "type": M.CREATE_LIBRARY,
                "ref": ref,
                "library": name,
                "functions": sorted(functions),
                "payload_size": len(payload),
                "slots": int(function_slots),
            }
        )
        if payload:
            self.conn.send_bytes(payload)
        return self._await(M.LIBRARY_CREATED, ref)

    def call(
        self,
        library: str,
        function: str,
        *args,
        deterministic: bool = False,
        **kwargs,
    ) -> dict:
        """Submit one by-reference function call; returns ``task_accepted``.

        The pickled arguments travel by size alone.  A blob of at most
        ``INLINE_ARGS_MAX`` bytes rides the ``submit_task`` frame as its
        trailing payload — one write, one reply, and the manager hands
        the same bytes to the worker on the ``invoke`` frame, so small
        arguments occupy no cluster storage and are not charged to the
        tenant's byte quota.  A larger blob is declared first as a
        content-addressed buffer (``args_cache``) that workers stage
        like any other input.  Either way :class:`ResultProxy`
        arguments travel as refs, so upstream result bytes move
        worker-to-worker and never through the manager or this client.
        The eventual ``task_result`` notice carries a ``result_ref``;
        turn it into a lazy value with :meth:`result_proxy`.
        """
        blob = ser.dumps({"args": args, "kwargs": kwargs})
        inputs = [[r.cache_name, r.cache_name] for r in scan_refs((args, kwargs))]
        spec = {
            "kind": "call",
            "library": library,
            "function": function,
            "inputs": inputs,
            "outputs": [],
        }
        if deterministic:
            spec["deterministic"] = True
        ref = next(self._refs)
        msg = {"type": M.SUBMIT_TASK, "ref": ref, "spec": spec}
        if len(blob) <= INLINE_ARGS_MAX:
            msg["payload_size"] = len(blob)
            self.conn.send_frame(encode_frame(msg) + blob)
        else:
            args_cache = self.declare_buffer(blob, level="workflow")["cache_name"]
            spec["args_cache"] = args_cache
            inputs.insert(0, [args_cache, args_cache])
            self.conn.send_message(msg)
        reply = self._await(M.TASK_ACCEPTED, ref)
        self._accepted += 1
        self.workflow_done = False
        return reply

    def result_proxy(self, notice: dict) -> ResultProxy:
        """Lazy handle to a call's by-reference result.

        ``notice`` is the ``task_result`` for a call submitted with
        :meth:`call`.  No bytes move until the proxy is dereferenced
        (``.resolve()``) — and none at all if it is only ever passed to
        a follow-up :meth:`call`, where it pickles back to a ref.
        """
        ref = notice.get("result_ref")
        if ref is None:
            raise ClientError(
                f"task {notice.get('task_id')} carries no result reference"
            )
        fetcher: Callable[[str], bytes] = self.fetch
        return ResultProxy(ResultRef.from_dict(ref), fetcher=fetcher)

    # -- completion and retrieval ----------------------------------------

    def wait(self, task_id: Optional[str] = None, timeout: float = 300.0) -> dict:
        """Block for a ``task_result`` notice (a specific task, or any)."""
        deadline = time.monotonic() + timeout

        def take() -> Optional[dict]:
            if task_id is not None:
                return self.results.pop(task_id, None)
            if self.results:
                return self.results.pop(next(iter(self.results)))
            return None

        while True:
            got = take()
            if got is not None:
                return got
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ClientError(f"timed out waiting for {task_id or 'a result'}")
            self._pump(wait=min(0.25, remaining))

    def run_until_done(self, timeout: float = 300.0) -> list[dict]:
        """Block until the service announces ``workflow_done``; returns
        every buffered ``task_result`` notice."""
        deadline = time.monotonic() + timeout
        while not self.workflow_done:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ClientError(f"workflow did not finish within {timeout}s")
            self._pump(wait=min(0.25, remaining))
        self.workflow_done = False  # reset for a follow-up batch
        out, self.results = list(self.results.values()), {}
        return out

    def fetch(self, cache_name: str, timeout: float = 60.0) -> bytes:
        """Fetch declared or produced content back by cache name."""
        self.conn.send_message({"type": M.FETCH_RESULT, "cache_name": cache_name})
        deadline = time.monotonic() + timeout
        while True:
            for i, (msg, payload) in enumerate(self._files):
                if msg["cache_name"] == cache_name:
                    del self._files[i]
                    if not msg.get("found"):
                        raise ClientError(f"service could not serve {cache_name}")
                    return payload or b""
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ClientError(f"timed out fetching {cache_name}")
            self._pump(wait=min(0.25, remaining))

    # -- lifecycle --------------------------------------------------------

    def detach(self) -> str:
        """Detach, leaving the workflow running; returns the session
        token a later :class:`ServiceClient` passes to reattach."""
        self.conn.send_message({"type": M.DETACH})
        self._await(M.DETACHED)
        self.conn.close()
        return self.session

    def close(self) -> None:
        self.conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _cmd_demo(client: ServiceClient, args: argparse.Namespace) -> int:
    """Declare a shared input, fan out tasks over it, wait, report."""
    declared = client.declare_buffer(args.content, level="workflow")
    accepted = [
        client.submit(
            f"cat shared.txt > out.txt && echo task-{i} >> out.txt",
            inputs=[("shared.txt", declared["cache_name"])],
            outputs=["out.txt"],
            # the commands are pure functions of their inputs, so a
            # memoizing service may serve recorded results for them
            deterministic=True,
        )
        for i in range(args.tasks)
    ]
    results = client.run_until_done(timeout=args.timeout)
    ok = sum(1 for r in results if r.get("exit_code") == 0)
    # fetch each output back and digest it: two runs of the demo can be
    # compared byte-for-byte (the memo smoke test's soundness check)
    output_md5s = []
    for reply in accepted:
        name = reply["outputs"]["out.txt"]
        output_md5s.append(hashlib.md5(client.fetch(name)).hexdigest())
    report = {
        "tenant": client.tenant,
        "cache_name": declared["cache_name"],
        "cache_hit": declared["cache_hit"],
        "submitted": len(accepted),
        "completed": len(results),
        "succeeded": ok,
        "output_md5s": output_md5s,
    }
    print(json.dumps(report))
    return 0 if ok == len(accepted) else 1


def _demo_part(i: int, size: int) -> bytes:
    """Deterministic chunk of result-plane ballast."""
    return bytes([i % 256]) * size


def _demo_total(parts) -> int:
    """Reduce over upstream results (materialized from proxies)."""
    return sum(len(p) for p in parts)


def _cmd_proxy_demo(client: ServiceClient, args: argparse.Namespace) -> int:
    """Map → reduce through result proxies; payloads stay at workers.

    Each map call produces ``--size`` bytes that never leave worker
    caches: the reduce consumes them by reference (worker-to-worker
    staging) and only the final integer is fetched back.  The CI smoke
    job asserts from the transaction log that zero result-payload bytes
    transited the manager (no ``@retrieve`` transfers).
    """
    client.create_library(
        "proxydemo", {"part": _demo_part, "total": _demo_total}, function_slots=2
    )
    accepted = [
        client.call("proxydemo", "part", i, args.size) for i in range(args.tasks)
    ]
    proxies = []
    for reply in accepted:
        notice = client.wait(reply["task_id"], timeout=args.timeout)
        if notice.get("exit_code") != 0:
            print(f"error: map call failed: {notice}", file=sys.stderr)
            return 1
        proxies.append(client.result_proxy(notice))
    reduce_reply = client.call("proxydemo", "total", proxies)
    notice = client.wait(reduce_reply["task_id"], timeout=args.timeout)
    if notice.get("exit_code") != 0:
        print(f"error: reduce call failed: {notice}", file=sys.stderr)
        return 1
    total = client.result_proxy(notice).resolve()
    expect = args.tasks * args.size
    report = {
        "tenant": client.tenant,
        "maps": len(accepted),
        "bytes_per_map": args.size,
        "total": total,
        "ok": total == expect,
    }
    print(json.dumps(report))
    return 0 if total == expect else 1


def _cmd_submit(client: ServiceClient, args: argparse.Namespace) -> int:
    """Submit one command and wait for its result."""
    inputs = []
    for item in args.input or []:
        sandbox, _, cache_name = item.partition("=")
        inputs.append((sandbox, cache_name))
    accepted = client.submit(args.command, inputs=inputs, outputs=args.output or [])
    result = client.wait(accepted["task_id"], timeout=args.timeout)
    print(json.dumps(result))
    return 0 if result.get("exit_code") == 0 else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Client for a service-mode TaskVine reproduction manager"
    )
    parser.add_argument("--connect", required=True, metavar="HOST:PORT")
    parser.add_argument("--tenant", required=True)
    parser.add_argument("--password", default=None)
    parser.add_argument("--timeout", type=float, default=120.0)
    sub = parser.add_subparsers(dest="cmd", required=True)

    demo = sub.add_parser("demo", help="declare a shared input and fan out tasks")
    demo.add_argument("--tasks", type=int, default=4)
    demo.add_argument("--content", default="shared demo input\n")

    pdemo = sub.add_parser(
        "proxy-demo", help="map → reduce with by-reference results"
    )
    pdemo.add_argument("--tasks", type=int, default=4)
    pdemo.add_argument("--size", type=int, default=64 << 10)

    submit = sub.add_parser("submit", help="submit one command task")
    submit.add_argument("command")
    submit.add_argument(
        "--input", action="append", metavar="SANDBOX=CACHE_NAME", default=None
    )
    submit.add_argument("--output", action="append", metavar="SANDBOX", default=None)

    args = parser.parse_args(argv)
    host, _, port = args.connect.rpartition(":")
    try:
        with ServiceClient(
            host or "127.0.0.1",
            int(port),
            args.tenant,
            password=args.password,
            timeout=args.timeout,
        ) as client:
            if args.cmd == "demo":
                return _cmd_demo(client, args)
            if args.cmd == "proxy-demo":
                return _cmd_proxy_demo(client, args)
            return _cmd_submit(client, args)
    except (ClientError, ConnectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
