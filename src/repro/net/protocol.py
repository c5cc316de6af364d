"""Request/response model spoken inside :mod:`repro.net.frame` frames.

Payloads are JSON objects (dependency-free, schema-light).  A request is
``{"cmd": <verb>, ...args}`` plus optional per-request budgets
(``timeout_ms``, ``max_rows``) that are threaded into the
:class:`~repro.service.context.QueryContext` — the deadline a client
sends is the deadline the join loops enforce.  A success response is the
verb's payload; a failure is ``{"error": <type name>, "message": ...}``
where the type name is the :mod:`repro.errors` class, so the client can
re-raise the *same* typed exception the server caught
(:func:`error_payload` / :func:`raise_error_payload`).

:func:`execute_request` is deliberately synchronous: the database service
is thread-safe and blocking, so the asyncio server runs each request on a
bounded worker pool and the protocol layer stays testable without an
event loop.
"""

from __future__ import annotations

import json

from repro import errors as _errors
from repro.errors import NetError, ProtocolError, ReproError

__all__ = [
    "SessionState",
    "decode_payload",
    "encode_payload",
    "error_payload",
    "raise_error_payload",
    "request_context",
    "execute_request",
    "COMMANDS",
]

#: Upper bound on spans returned inline by one query response; larger
#: results report their count plus a truncation marker instead of
#: breaching the frame cap.
MAX_RESPONSE_SPANS = 10_000


def encode_payload(obj: dict) -> bytes:
    """JSON-encode a payload dict to wire bytes (compact separators)."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode("utf-8")


def decode_payload(data: bytes) -> dict:
    """Decode wire bytes; malformed JSON is a typed protocol error."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed JSON payload: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"payload must be a JSON object, got {type(obj).__name__}"
        )
    return obj


# ----------------------------------------------------------------------
# typed errors over the wire


def error_payload(exc: Exception) -> dict:
    """Serialize an exception as a typed error payload."""
    return {"error": type(exc).__name__, "message": str(exc)}


#: Every repro error class addressable by name (for client re-raising).
_ERROR_CLASSES = {
    name: getattr(_errors, name)
    for name in _errors.__all__
    if isinstance(getattr(_errors, name), type)
    and issubclass(getattr(_errors, name), BaseException)
}


def raise_error_payload(payload: dict) -> None:
    """Re-raise a typed error payload as its original exception class.

    Unknown names degrade to :class:`~repro.errors.NetError` — a newer
    server never crashes an older client with an unmappable type.
    """
    name = payload.get("error", "NetError")
    message = payload.get("message", "server reported an error")
    cls = _ERROR_CLASSES.get(name)
    if cls is None or not issubclass(cls, ReproError):
        raise NetError(f"{name}: {message}")
    raise cls(message)


# ----------------------------------------------------------------------
# per-connection session state


class SessionState:
    """What one connection remembers between requests.

    - ``pinned``: an explicitly pinned epoch snapshot (``pin`` command),
      giving the connection repeatable reads across requests.  Released
      on ``unpin``, on connection loss, and on server drain — the fault
      drills assert no pin outlives its connection.
    - ``inflight``: ids of requests currently executing, each mapped to
      its :class:`~repro.service.context.QueryContext` so a dying
      connection can cooperatively cancel its own work.
    """

    __slots__ = ("session_id", "pinned", "inflight")

    def __init__(self, session_id: int):
        self.session_id = session_id
        self.pinned = None
        self.inflight: dict[int, object] = {}

    def release(self) -> None:
        """Drop the pinned snapshot (idempotent)."""
        if self.pinned is not None:
            self.pinned.release()
            self.pinned = None

    def cancel_inflight(self, reason: str) -> None:
        """Cooperatively cancel every in-flight request's context."""
        for ctx in list(self.inflight.values()):
            ctx.cancel(reason)


# ----------------------------------------------------------------------
# request execution


def _int_field(request: dict, key: str, default=None):
    """Coerce a request field to ``int``; absent fields return ``default``
    and a value that will not coerce is the *client's* fault
    (:class:`~repro.errors.ProtocolError`), never an internal error."""
    value = request.get(key, default)
    if value is None:
        return None
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ProtocolError(
            f"field {key!r} must be an integer, got {value!r}"
        ) from None


def _float_field(request: dict, key: str, default=None):
    """Coerce a request field to ``float`` (same contract as
    :func:`_int_field`)."""
    value = request.get(key, default)
    if value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ProtocolError(
            f"field {key!r} must be a number, got {value!r}"
        ) from None


def _str_field(request: dict, key: str, cmd: str):
    """A required, non-empty string field."""
    value = request.get(key)
    if not value or not isinstance(value, str):
        raise ProtocolError(f"{cmd} needs a string {key!r}")
    return value


def _spans(db, records, limit: int):
    rows = []
    for record in records[:limit]:
        if hasattr(record, "gstart"):  # sharded: virtual-global span
            rows.append([record.gstart, record.gend, record.sid, record.level])
        else:
            start, end = db.global_span(record)
            rows.append([start, end, record.sid, record.level])
    return rows


def request_context(service, request: dict):
    """A QueryContext honoring the request's own budgets (validated:
    unusable budget values are the client's fault, typed as
    :class:`~repro.errors.ProtocolError`)."""
    overrides = {}
    timeout_ms = _float_field(request, "timeout_ms")
    if timeout_ms is not None:
        overrides["timeout"] = timeout_ms / 1e3
    max_rows = _int_field(request, "max_rows")
    if max_rows is not None:
        overrides["max_result_rows"] = max_rows
    return service.make_context(**overrides)


def _cmd_ping(service, session, request, ctx):
    return {"pong": True}


def _cmd_query(service, session, request, ctx):
    expr = _str_field(request, "expr", "query")
    limit = _int_field(request, "limit", MAX_RESPONSE_SPANS)

    # The span rows are computed *inside* the read closure, while the
    # epoch pin is held: once service.read() returns, a drained snapshot
    # buffer becomes the publish spare and is mutated in place by the
    # next write, so neither `db` nor `records` may escape the pin.
    def run(db, context):
        records = db.path_query(expr, context=context)
        return len(records), _spans(db, records, limit)

    if session.pinned is not None:
        count, rows = run(session.pinned.db, ctx)
    else:
        count, rows = service.read(run, context=ctx)
    return {"count": count, "spans": rows, "truncated": count > limit}


def _cmd_twig(service, session, request, ctx):
    expr = _str_field(request, "expr", "twig")
    limit = _int_field(request, "limit", MAX_RESPONSE_SPANS)
    strategy = request.get("strategy", "auto")
    if not isinstance(strategy, str):
        raise ProtocolError("twig 'strategy' must be a string")

    # Same pin discipline as _cmd_query: span rows are computed while
    # the epoch pin is held, nothing from the snapshot escapes.
    def run(db, context):
        records = db.twig_query(expr, strategy=strategy, context=context)
        return len(records), _spans(db, records, limit)

    if session.pinned is not None:
        count, rows = run(session.pinned.db, ctx)
    else:
        count, rows = service.read(run, context=ctx)
    return {"count": count, "spans": rows, "truncated": count > limit}


def _cmd_join(service, session, request, ctx):
    tag_a = _str_field(request, "ancestor", "join")
    tag_d = _str_field(request, "descendant", "join")
    algorithm = request.get("algorithm", "lazy")
    axis = request.get("axis", "descendant")
    if not isinstance(algorithm, str) or not isinstance(axis, str):
        raise ProtocolError("join 'algorithm' and 'axis' must be strings")
    if session.pinned is not None:
        pairs = session.pinned.db.structural_join(
            tag_a, tag_d, axis, algorithm=algorithm, context=ctx
        )
    else:
        pairs = service.join(
            tag_a, tag_d, axis, algorithm=algorithm, context=ctx
        )
    return {"pairs": len(pairs)}


def _cmd_insert(service, session, request, ctx):
    fragment = _str_field(request, "fragment", "insert")
    receipt = service.insert(fragment, _int_field(request, "position"))
    return {"sid": receipt.sid, "gp": receipt.gp}


def _batch_slot(sub: dict, result) -> dict | None:
    """One batch sub-op's wire summary (None = skipped sub-op)."""
    if result is None:
        return None
    kind = sub.get("op")
    if kind == "insert":
        return {"sid": result.sid, "gp": result.gp}
    if kind in ("remove", "remove_segment"):
        return {"elements_removed": result.elements_removed}
    if kind == "repack":
        return {"repacked": True}
    results = result if isinstance(result, list) else [result]
    return {
        "segments_before": sum(r.segments_before for r in results),
        "segments_after": sum(r.segments_after for r in results),
    }


def _cmd_batch(service, session, request, ctx):
    """Apply a list of op records as one commit (one fsync, one epoch)."""
    ops = request.get("ops")
    if (
        not isinstance(ops, list)
        or not ops
        or not all(isinstance(sub, dict) for sub in ops)
    ):
        raise ProtocolError("batch needs a non-empty 'ops' list of op records")
    results = service.apply_batch(ops)
    return {
        "results": [_batch_slot(sub, res) for sub, res in zip(ops, results)],
        "applied": sum(1 for res in results if res is not None),
        "skipped": sum(1 for res in results if res is None),
    }


def _cmd_remove(service, session, request, ctx):
    if "position" not in request or "length" not in request:
        raise ProtocolError("remove needs 'position' and 'length'")
    outcome = service.remove(
        _int_field(request, "position"), _int_field(request, "length")
    )
    return {"elements_removed": outcome.elements_removed}


def _cmd_remove_segment(service, session, request, ctx):
    if "sid" not in request:
        raise ProtocolError("remove_segment needs 'sid'")
    outcome = service.remove_segment(_int_field(request, "sid"))
    return {"elements_removed": outcome.elements_removed}


def _cmd_repack(service, session, request, ctx):
    if "sid" not in request:
        raise ProtocolError("repack needs 'sid'")
    service.repack(_int_field(request, "sid"))
    return {"repacked": True}


def _cmd_compact(service, session, request, ctx):
    result = service.compact()
    results = result if isinstance(result, list) else [result]
    return {
        "segments_before": sum(r.segments_before for r in results),
        "segments_after": sum(r.segments_after for r in results),
    }


def _cmd_maintain(service, session, request, ctx):
    report = service.run_maintenance()
    return {"pressure": report.level}


def _cmd_pressure(service, session, request, ctx):
    return service.check_pressure().as_dict()


def _cmd_health(service, session, request, ctx):
    return service.health()


def _cmd_stats(service, session, request, ctx):
    return service.stats()


def _cmd_pin(service, session, request, ctx):
    """Pin the current epoch for this session (repeatable reads)."""
    if session.pinned is None:
        session.pinned = service.snapshot()
    return {"epoch": getattr(session.pinned, "epoch", None)}


def _cmd_unpin(service, session, request, ctx):
    had = session.pinned is not None
    session.release()
    return {"unpinned": had}


COMMANDS = {
    "ping": _cmd_ping,
    "query": _cmd_query,
    "twig": _cmd_twig,
    "join": _cmd_join,
    "insert": _cmd_insert,
    "batch": _cmd_batch,
    "remove": _cmd_remove,
    "remove_segment": _cmd_remove_segment,
    "repack": _cmd_repack,
    "compact": _cmd_compact,
    "maintain": _cmd_maintain,
    "pressure": _cmd_pressure,
    "health": _cmd_health,
    "stats": _cmd_stats,
    "pin": _cmd_pin,
    "unpin": _cmd_unpin,
}


def execute_request(
    service, session: SessionState, request: dict, context=None
) -> dict:
    """Run one decoded request against the service; returns the success
    payload (exceptions propagate, to be serialized by the caller).

    Reads honor the session's pinned snapshot; writes and maintenance go
    through the service's admission/journal/publish machinery unchanged.
    ``context`` lets the caller pre-build (and retain) the QueryContext —
    the TCP server registers it in ``session.inflight`` so a dead
    connection can cancel its own work; omitted, one is derived from the
    request's ``timeout_ms``/``max_rows`` budgets.
    """
    cmd = request.get("cmd")
    handler = COMMANDS.get(cmd) if isinstance(cmd, str) else None
    if handler is None:
        raise ProtocolError(f"unknown command {cmd!r}")
    if context is None:
        context = request_context(service, request)
    # Argument validation happens at the top of each handler (typed
    # ProtocolError); an unexpected TypeError/ValueError from deeper in
    # the database layer is an internal defect and propagates as one —
    # blaming it on the client would mask the bug.
    return handler(service, session, request, context)
