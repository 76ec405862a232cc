"""Wire message vocabulary for the TaskVine protocol.

A thin schema layer over the JSON control frames: message *types* are
named constants, and :func:`validate` checks required fields before a
message is acted on, so protocol bugs fail loudly at the boundary
rather than deep inside a runtime.

Direction conventions (paper §2.2: "the manager directs all policy
decisions, while the worker provides the mechanisms"):

* manager → worker: commands (``put_file``, ``fetch_file``,
  ``stage_minitask``, ``execute``, ``send_back``, ``unlink``,
  ``install_library``, ``invoke``, ``shutdown``)
* worker → manager: facts (``register``, ``cache_update``,
  ``cache_invalid``, ``task_done``, ``library_ready``, ``draining``)
* worker ↔ worker: the peer transfer protocol (``get`` /
  ``file_data``).
* client ↔ manager: the session protocol of service mode
  (``client_hello`` through ``detach``) — clients attach to a
  long-lived manager over the same reactor the workers use, and the
  first frame on a connection decides which role it speaks (see
  :data:`SESSION_CLIENT` / :data:`SESSION_WORKER`).
"""

from __future__ import annotations

from typing import Mapping

__all__ = [
    "M",
    "validate",
    "validate_batch",
    "WireError",
    "CLIENT_KINDS",
    "INLINE_ARGS_MAX",
]

#: largest serialized argument blob a function call carries *in* its
#: ``submit_task`` and ``invoke`` frames (as trailing payload bytes).
#: Pass-by-reference pays for large objects and is pure overhead below
#: a size threshold (Pauloski et al., PAPERS.md): a blob up to this
#: size occupies no cluster storage, a larger one is declared as a
#: buffer and staged like any other input (``args_cache``).
INLINE_ARGS_MAX = 64 << 10


class WireError(ValueError):
    """A message failed schema validation."""


class M:
    """Message type constants (``msg["type"]`` values)."""

    # manager -> worker
    ACK = "ack"
    PUT_FILE = "put_file"            # + raw bytes follow
    FETCH_FILE = "fetch_file"        # worker pulls from url/peer
    STAGE_MINITASK = "stage_minitask"
    EXECUTE = "execute"
    SEND_BACK = "send_back"
    UNLINK = "unlink"
    INSTALL_LIBRARY = "install_library"  # + raw payload bytes follow
    INVOKE = "invoke"                # + raw args payload bytes follow
    CANCEL_TASK = "cancel_task"
    SHUTDOWN = "shutdown"

    # worker -> manager
    REGISTER = "register"
    HEARTBEAT = "heartbeat"
    CACHE_UPDATE = "cache_update"
    CACHE_INVALID = "cache_invalid"
    TASK_DONE = "task_done"
    LIBRARY_READY = "library_ready"
    FILE_DATA = "file_data"          # + raw bytes follow (send_back reply)
    FAULT = "fault"                  # injected-fault notice (chaos runs)
    DRAINING = "draining"            # graceful-departure announcement

    # worker <-> worker peer transfers
    GET = "get"

    # client -> manager (service mode sessions)
    CLIENT_HELLO = "client_hello"
    DECLARE_FILE = "declare_file"    # + raw buffer bytes follow when size > 0
    SUBMIT_TASK = "submit_task"      # + a call's inline args bytes may follow
    SUBMIT_DAG = "submit_dag"
    FETCH_RESULT = "fetch_result"
    CREATE_LIBRARY = "create_library"  # + serialized function table follows
    DETACH = "detach"

    # manager -> client
    WELCOME = "welcome"
    CLIENT_REJECT = "client_reject"
    FILE_DECLARED = "file_declared"
    TASK_ACCEPTED = "task_accepted"
    TASK_RESULT = "task_result"
    LIBRARY_CREATED = "library_created"
    WORKFLOW_DONE = "workflow_done"
    DETACHED = "detached"

    # either direction: several payload-free control messages coalesced
    # into one frame (batched control traffic; flushed on size/deadline)
    BATCH = "batch"


#: required fields per message type (beyond "type" itself)
_SCHEMA: Mapping[str, tuple[str, ...]] = {
    M.ACK: (),
    M.PUT_FILE: ("cache_name", "size", "level"),
    M.FETCH_FILE: ("cache_name", "source", "transfer_id", "level"),
    M.STAGE_MINITASK: ("cache_name", "spec", "level", "transfer_id"),
    M.EXECUTE: ("task_id", "command", "inputs", "outputs", "resources"),
    M.SEND_BACK: ("cache_name",),
    # a list of names: workflow end unlinks a worker's objects in one frame
    M.UNLINK: ("cache_names",),
    M.INSTALL_LIBRARY: ("library", "functions", "payload_size", "task_id"),
    # "result_name" is the cache name the worker stores the result
    # envelope under: results travel by reference, never in the reply
    M.INVOKE: ("task_id", "library", "function", "payload_size", "result_name"),
    M.CANCEL_TASK: ("task_id",),
    M.SHUTDOWN: (),
    # optional "rejoin": True when the worker is reconnecting after its
    # manager vanished (crash-safe restart) — its "cached" inventory
    # re-adopts surviving replicas into the new manager life
    M.REGISTER: ("capacity", "transfer_port"),
    M.HEARTBEAT: (),
    M.CACHE_UPDATE: ("cache_name", "size"),
    M.CACHE_INVALID: ("cache_name", "reason"),
    # optional "outputs": [[cache_name, size], …] the attempt left in
    # the worker's cache — the manager registers them with the attempt
    M.TASK_DONE: ("task_id", "exit_code"),
    M.LIBRARY_READY: ("library", "task_id"),
    # optional "md5": transit digest of the served bytes (peer replies)
    M.FILE_DATA: ("cache_name", "found", "size"),
    M.FAULT: ("category",),
    # a worker announcing its graceful departure (elastic scale-down):
    # it keeps serving running tasks and peer transfers until the
    # manager finishes migrating its sole-holder objects and answers
    # with ``shutdown``; optional "reason" describes why it is leaving
    M.DRAINING: (),
    M.GET: ("cache_name",),
    # client sessions.  ``client_hello`` optionally carries "password"
    # (project auth) and "session" (a token from a previous welcome,
    # for reattach); ``declare_file`` announces trailing buffer bytes
    # via spec["size"] when the content rides along; ``submit_task``
    # of a ``kind: "call"`` spec announces its inline argument blob (at
    # most INLINE_ARGS_MAX bytes) via "payload_size".
    M.CLIENT_HELLO: ("tenant",),
    M.DECLARE_FILE: ("ref", "spec"),
    M.SUBMIT_TASK: ("ref", "spec"),
    M.SUBMIT_DAG: ("ref", "tasks"),
    M.FETCH_RESULT: ("cache_name",),
    # ``create_library`` ships the serialized function table as trailing
    # bytes ("payload_size"); the manager never unpickles it — the blob
    # is forwarded verbatim to workers via ``install_library``.
    M.CREATE_LIBRARY: ("ref", "library", "functions", "payload_size"),
    M.DETACH: (),
    # welcome optionally carries "done" (delivery baseline), "missed"
    # (notices lost to the buffer cap or a manager crash) and
    # "recovered" (True when the session was rebuilt from the journal)
    M.WELCOME: ("session", "tenant"),
    M.CLIENT_REJECT: ("reason",),
    M.FILE_DECLARED: ("ref", "cache_name", "cache_hit"),
    M.TASK_ACCEPTED: ("ref", "task_id"),
    M.TASK_RESULT: ("task_id", "state"),
    M.LIBRARY_CREATED: ("ref", "library"),
    M.WORKFLOW_DONE: ("tenant",),
    M.DETACHED: (),
}

#: message types a *client* session may send to the manager.  The
#: reactor uses this to bound what an attached client can do: anything
#: outside this set on a client connection is a protocol violation
#: answered with ``client_reject`` rather than acted on.
CLIENT_KINDS = frozenset(
    {
        M.CLIENT_HELLO,
        M.DECLARE_FILE,
        M.SUBMIT_TASK,
        M.SUBMIT_DAG,
        M.FETCH_RESULT,
        M.CREATE_LIBRARY,
        M.DETACH,
    }
)


def validate(message: dict) -> str:
    """Check a decoded control message; returns its type.

    Raises :class:`WireError` if the type is unknown, any required
    field is missing, or a ``task_done`` announces trailing result
    bytes.  ``batch`` envelopes are validated recursively
    (see :func:`validate_batch`); they live outside ``_SCHEMA`` because
    their one field is structural, not a flat required-key check.
    """
    mtype = message.get("type")
    if mtype == M.BATCH:
        validate_batch(message)
        return mtype
    if mtype not in _SCHEMA:
        raise WireError(f"unknown message type {mtype!r}")
    missing = [f for f in _SCHEMA[mtype] if f not in message]
    if missing:
        raise WireError(f"message {mtype!r} missing fields {missing}")
    if mtype == M.TASK_DONE and "result_size" in message:
        # a pre-by-reference worker would follow this frame with raw
        # result bytes nobody reads, desynchronising the stream
        raise WireError(
            "task_done carries retired field 'result_size': results "
            "travel by reference (the report's 'outputs' names them)"
        )
    return mtype


def validate_batch(message: dict) -> list[dict]:
    """Check a ``batch`` envelope; returns its sub-messages.

    A batch carries a non-empty list of *payload-free* control
    messages: nesting is rejected, as is any sub-message that announces
    trailing bytes (``file_data`` with content) — those must travel as
    their own frame so bulk streams stay contiguous on the wire.
    """
    subs = message.get("messages")
    if not isinstance(subs, list) or not subs:
        raise WireError("batch must carry a non-empty 'messages' list")
    for sub in subs:
        if not isinstance(sub, dict):
            raise WireError("batch sub-message must be a JSON object")
        if sub.get("type") == M.BATCH:
            raise WireError("batch envelopes cannot nest")
        mtype = validate(sub)
        if mtype == M.FILE_DATA and sub.get("found"):
            raise WireError("file_data with content cannot ride in a batch")
        if mtype == M.TASK_DONE and sub.get("result_size"):
            raise WireError("task_done with a result payload cannot ride in a batch")
    return subs
