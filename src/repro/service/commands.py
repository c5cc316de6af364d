"""The verb table: one request pipeline behind every front end.

A request is a dict ``{"cmd": <verb>, ...fields}``; :data:`COMMANDS` is
the only place a verb's fields are checked, its service call made and its
reply built, and :func:`execute_request` runs one request against a
:class:`~repro.service.server.DatabaseService`.  The front ends are
codecs over that call: the line shell turns a text line into the dict
(:func:`line_request`) and prints the reply (:func:`render_reply`), the
command line (``python -m repro <verb> TARGET <words...>``) does the same
for one line per process, and the TCP front end carries the same dict as
JSON.  A write goes request -> table entry -> journal-dialect op record
-> ``service.apply`` -> ``apply_op`` on the primary; a read goes request
-> table entry -> ``service.read``.  Every request may also carry the budgets
``timeout_ms`` / ``max_rows`` (the deadline a client sends is the
deadline the join loops enforce) and, on a read verb, ``trace`` (the
reply then carries the span list of :mod:`repro.obs.trace`).
"""

from __future__ import annotations

import json
from itertools import islice
from math import isfinite
from typing import Callable, NamedTuple

from repro.errors import ProtocolError
from repro.obs.trace import Trace

__all__ = [
    "COMMANDS", "Field", "SessionState", "Verb", "bind", "execute_request",
    "line_fields", "line_request", "reference", "render_reply",
    "request_context", "span_row",
]

#: Upper bound on spans returned inline by one query response; larger
#: results report their count plus a truncation marker instead of
#: breaching the frame cap.
MAX_RESPONSE_SPANS = 10_000


class SessionState:
    """What one connection (or one shell) remembers between requests.

    - ``pinned``: an explicitly pinned epoch snapshot (``pin`` command),
      giving the session repeatable reads across requests.  Released on
      ``unpin``, on connection loss, and on drain — the fault drills
      assert no pin outlives its connection.
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
# typed fields


def _int(value) -> int:
    # A wire number must be an integer already (``true`` is no 1, 2.9 no
    # 2); a text line's word is read as one.
    if isinstance(value, bool) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise TypeError(value)
    return int(value)


def _count(value) -> int:
    number = _int(value)
    if number < 0:
        raise ValueError(value)
    return number


def _float(value) -> float:
    if isinstance(value, bool):
        raise TypeError(value)
    number = float(value)
    if not isfinite(number):  # a NaN deadline would never expire
        raise ValueError(value)
    return number


def _string(value) -> str:
    if not (isinstance(value, str) and value):
        raise TypeError(value)
    return value


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(value)
    return value


def _op_records(value) -> list:
    if not (isinstance(value, list) and value
            and all(isinstance(sub, dict) for sub in value)):
        raise TypeError(value)
    return value


#: Field kind -> (coercion, what a value must be).  A text line supplies
#: every field as a word, so the numeric kinds coerce from strings; ``text``
#: takes the rest of a line; ``ops`` has no line form.
_KINDS: dict[str, tuple[Callable, str]] = {
    "int": (_int, "an integer"),
    "count": (_count, "a non-negative integer"),
    "float": (_float, "a finite number"),
    "word": (_string, "a non-empty string"),
    "text": (_string, "a non-empty string"),
    "flag": (_flag, "true or false"),
    "ops": (_op_records, "a non-empty list of op records"),
}

_REQUIRED = object()


class Field(NamedTuple):
    """One typed request field: required unless it has a ``default`` (the
    value an absent or ``null`` field takes); ``absent`` is the word that
    leaves an optional field out on a text line (``insert end <xml>``)."""

    name: str
    kind: str
    default: object = _REQUIRED
    absent: str | None = None

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED


def bind(cmd, fields, request: dict) -> dict:
    """The request's ``fields``, checked and coerced, by name.

    A required field that is absent or ``null``, or a value that will not
    coerce, is the *client's* fault: a typed
    :class:`~repro.errors.ProtocolError` naming the field, before any work.
    """
    args = {}
    for name, kind, default, _ in fields:
        value = request.get(name)
        try:
            if value is not None:
                args[name] = _KINDS[kind][0](value)
            elif default is _REQUIRED:
                raise TypeError(value)
            else:
                args[name] = default
        except (TypeError, ValueError):
            raise ProtocolError(
                f"{cmd}: field {name!r} must be {_KINDS[kind][1]}, got {value!r}"
            ) from None
    return args


_REQUEST_FIELDS = (
    Field("timeout_ms", "float", None),
    Field("max_rows", "count", None),
    Field("trace", "flag", False),
)


def request_context(service, request: dict):
    """A QueryContext honoring the request's own budgets and ``trace``
    flag (validated like any verb's fields)."""
    common = bind(request.get("cmd"), _REQUEST_FIELDS, request)
    overrides = {}
    if common["timeout_ms"] is not None:
        overrides["timeout"] = common["timeout_ms"] / 1e3
    if common["max_rows"] is not None:
        overrides["max_result_rows"] = common["max_rows"]
    if common["trace"]:
        overrides["trace"] = Trace()
    return service.make_context(**overrides)


# ----------------------------------------------------------------------
# handlers: (service, session, args, ctx) -> reply dict


def span_row(db, record) -> list:
    """``[start, end, sid, level]``: an element record as every surface
    reports it — its current *global* span (what ``remove <position>
    <length>`` consumes), then its segment and level.  Works on any
    database: each answers :meth:`global_span` its own way."""
    start, end = db.global_span(record)
    return [start, end, record.sid, record.level]


def _matches(db, records, limit: int) -> dict:
    # islice, not a slice: a memoised answer would flatten itself (and
    # keep the copy) to hand over its first ``limit`` rows.
    return {
        "count": len(records),
        "spans": [span_row(db, record) for record in islice(records, limit)],
        "truncated": len(records) > limit,
    }


def _read(run):
    """A read verb: ``run(db, args, ctx)`` builds the whole reply *inside*
    the service's read closure, under the session's pin when it has one
    (see :meth:`DatabaseService.read` for why nothing may escape it)."""

    def handler(service, session, args, ctx):
        return service.read(
            lambda db, context: run(db, args, context),
            context=ctx, snapshot=session.pinned,
        )

    return handler


def _batch_slot(op: dict, result) -> dict | None:
    """An op record's result as its reply (None = a skipped batch sub-op)."""
    if result is None:
        return None
    kind = op["op"]
    if kind == "batch":
        slots = [_batch_slot(sub, res) for sub, res in zip(op["ops"], result)]
        skipped = slots.count(None)
        return {"results": slots, "applied": len(slots) - skipped,
                "skipped": skipped}
    if kind == "insert":
        return {"sid": result.sid, "gp": result.gp}
    if kind in ("remove", "remove_segment"):
        return {"elements_removed": result.elements_removed}
    if kind == "repack":
        return {"repacked": True}
    return {"segments_before": result.segments_before,
            "segments_after": result.segments_after}


def _write(kind: str):
    """A write verb: its fields *are* the op record.  ``ctx`` goes along
    so a loop attempt can stop before the commit (see
    :meth:`DatabaseService.apply`)."""

    def handler(service, session, args, ctx):
        op = {"op": kind}
        op.update(item for item in args.items() if item[1] is not None)
        return _batch_slot(op, service.apply(op, context=ctx))

    return handler


def _pin(service, session, args, ctx):
    if session.pinned is None:
        session.pinned = service.snapshot()
    return {"epoch": getattr(session.pinned, "epoch", None)}


def _unpin(service, session, args, ctx):
    had = session.pinned is not None
    session.release()
    return {"unpinned": had}


# ----------------------------------------------------------------------
# the table


class Verb(NamedTuple):
    """One table entry.  ``fields`` are in the order a text line supplies
    them; a ``text`` field takes the rest of the line, so fields after it
    — and a verb with an ``ops`` field altogether — are wire-only.
    ``kind`` is ``read``, ``write``, ``maintenance`` (a write whose cost
    follows the whole log: it never runs on the TCP event loop) or
    ``status`` (no admission ticket); ``summary`` formats the shell's ``ok`` line from
    the reply (None = the reply as JSON)."""

    handler: Callable
    fields: tuple = ()
    kind: str = "status"
    summary: str | None = None
    doc: str = ""


_LIMIT = Field("limit", "count", MAX_RESPONSE_SPANS)
_EXPR = Field("expr", "text")
#: ``query`` and ``twig``, its other name: a pattern's matches.
_PATTERN = Verb(
    _read(lambda db, a, ctx: _matches(
        db, db.twig_query(a["expr"], context=ctx), a["limit"])),
    (_EXPR, _LIMIT), "read", "{count} match(es)",
    "pattern query (path or twig): count + global spans")
_SID = (Field("sid", "int"),)
_REMOVED = "removed {elements_removed} element record(s)"

COMMANDS: dict[str, Verb] = {
    "ping": Verb(lambda *_: {"pong": True}, doc="liveness probe"),
    "query": _PATTERN,
    "twig": _PATTERN,
    "join": Verb(
        _read(lambda db, a, ctx: {"pairs": len(db.structural_join(
            a["ancestor"], a["descendant"], a["axis"], context=ctx))}),
        (Field("ancestor", "word"), Field("descendant", "word"),
         Field("axis", "word", "descendant")),
        "read", "{pairs} pair(s)", "structural join (Lazy-Join)"),
    "insert": Verb(
        _write("insert"),
        (Field("position", "int", None, "end"), Field("fragment", "text")),
        "write", "inserted segment {sid} at {gp}",
        "insert XML at a global position"),
    "remove": Verb(
        _write("remove"), (Field("position", "int"), Field("length", "int")),
        "write", _REMOVED, "remove a character span"),
    "remove_segment": Verb(
        _write("remove_segment"), _SID,
        "write", _REMOVED, "remove the span one segment occupies"),
    "batch": Verb(
        _write("batch"), (Field("ops", "ops"),),
        "write", "applied {applied}, skipped {skipped}",
        "op records as one commit"),
    "repack": Verb(
        _write("repack"), _SID,
        "maintenance", "repacked", "collapse a segment's subtree"),
    "compact": Verb(
        _write("compact"), (), "maintenance",
        "compacted {segments_before} -> {segments_after} segment(s)",
        "one segment per document"),
    "health": Verb(
        lambda service, *_: service.health(), doc="operational snapshot"),
    "stats": Verb(
        lambda service, *_: service.stats(),
        doc="health plus the metric catalogue"),
    "pin": Verb(_pin, doc="pin the current epoch: repeatable reads"),
    "unpin": Verb(_unpin, doc="release the session's pin"),
}


def execute_request(
    service, session: SessionState, request: dict, context=None
) -> dict:
    """Run one decoded request against the service; returns the success
    payload (exceptions propagate, to be serialized by the caller).

    ``context`` lets the caller pre-build (and retain) the QueryContext —
    the TCP server registers it in ``session.inflight`` so a dead
    connection can cancel its own work; omitted, one is derived from the
    request by :func:`request_context`.
    """
    cmd = request.get("cmd")
    entry = COMMANDS.get(cmd) if isinstance(cmd, str) else None
    if entry is None:
        raise ProtocolError(f"unknown command {cmd!r}")
    # Every field check happens here, before the handler (typed
    # ProtocolError); an unexpected TypeError/ValueError from the handler
    # or below is an internal defect and propagates as one — blaming it
    # on the client would mask the bug.
    args = bind(cmd, entry.fields, request)
    if context is None:
        context = request_context(service, request)
    traced = context.trace is not None
    if traced and entry.kind != "read":
        raise ProtocolError(f"{cmd} is not a read verb; only reads trace")
    reply = entry.handler(service, session, args, context)
    if traced:
        reply["trace"] = context.trace.as_dicts()
    return reply


# ----------------------------------------------------------------------
# the text-line codec (shell) and the printed reference


def line_fields(verb: str) -> list[Field] | None:
    """The fields a text line can supply, in order (None = wire-only)."""
    fields = COMMANDS[verb].fields
    kinds = [field.kind for field in fields]
    if "ops" in kinds:
        return None
    stop = kinds.index("text") + 1 if "text" in kinds else len(fields)
    return list(fields[:stop])


def line_request(verb: str, rest: str) -> dict:
    """The request a text line ``<verb> <rest>`` stands for.  Words stay
    strings: :func:`execute_request` coerces them exactly as it coerces
    wire values, so both front ends share one set of field checks."""
    fields = line_fields(verb)
    if fields is None:
        raise ProtocolError(f"{verb} has no line form (wire only)")
    request = {"cmd": verb}
    rest = rest.strip()
    for field in fields:
        if not rest:
            break
        if field.kind == "text":
            word, rest = rest, ""
        else:
            word, rest = (rest.split(None, 1) + [""])[:2]
        if word != field.absent:
            request[field.name] = word
    if rest:
        raise ProtocolError(f"{verb} takes: {_usage(verb)}; left over: {rest!r}")
    return request


def render_reply(verb: str, reply: dict) -> list[str]:
    """The shell's print of a reply: one ``ok`` line, then one indented
    line per span row and per trace span."""
    reply = dict(reply)
    spans = reply.pop("spans", ())
    trace = reply.pop("trace", None)
    summary = COMMANDS[verb].summary
    head = (json.dumps(reply, sort_keys=True) if summary is None
            else summary.format(**reply))
    if trace is not None:
        head += f", {len(trace)} span(s)"
    lines = [f"ok {head}"]
    lines += [f"  sid={sid} start={start} end={end} level={level}"
              for start, end, sid, level in spans]
    lines += ["  " + json.dumps(span, sort_keys=True) for span in trace or ()]
    return lines


def _usage(verb: str) -> str:
    """``verb <required> [optional]`` over the fields a line reaches."""
    fields = line_fields(verb)
    if fields is None:
        return f"{verb} (wire only)"
    words = [verb]
    for field in fields:
        name = field.name + (f"|{field.absent}" if field.absent else "")
        name += "..." if field.kind == "text" else ""
        bare = field.required or field.absent
        words.append(f"<{name}>" if bare else f"[{name}]")
    return " ".join(words)


def reference() -> str:
    """One line per verb — line form, service class, meaning, and the
    fields only the wire reaches: what ``help``, the shell's module
    docstring and the README print."""
    rows = []
    for verb, entry in COMMANDS.items():
        line = line_fields(verb) or ()
        wire = [field.name for field in entry.fields if field not in line]
        doc = entry.doc + (f"; wire fields: {', '.join(wire)}" if wire else "")
        rows.append(f"    {_usage(verb):<47} {entry.kind:<12} {doc}")
    return "\n".join(rows)
