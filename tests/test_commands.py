"""The verb table, driven from the table.

Every test here iterates :data:`repro.service.commands.COMMANDS` (or fails
when a verb has no sample), so a new verb is covered by adding its entry
and one ``SAMPLES`` line:

- every entry x every required field x {missing, ``null``, wrong type} is
  a typed ``ProtocolError`` naming the field, with nothing journaled or
  applied;
- every verb gives the same reply as a shell line, as a request dict and
  over a real TCP round trip, on a plain and a durable primary;
- the replies of the requests ``benchmarks/e2e/surfaces.py`` builds are the
  parent commit's, value for value;
- pinned reads, tracing, and a throw-away verb, on both front ends.
"""

from __future__ import annotations

import asyncio
import io
import json
from pathlib import Path

import pytest

from repro.core.database import LazyXMLDatabase
from repro.core.join import JoinAnswer
from repro.durability.database import DurableDatabase
from repro.errors import (
    Busy,
    NetError,
    ProtocolError,
    ReproError,
    ResourceExhausted,
    WorkerLost,
)
from repro.net.client import connect
from repro.net.protocol import raise_error_payload
from repro.net.server import TcpServer
from repro.service import DatabaseService, ServiceConfig
from repro.service.commands import (
    COMMANDS,
    _REQUEST_FIELDS,
    Field,
    SessionState,
    Verb,
    bind,
    execute_request,
    line_request,
    reference,
    render_reply,
    span_row,
)
from repro.service.shell import ServiceShell
from repro.shard import ShardedDatabase

pytestmark = pytest.mark.timeout(60)

DOCS = ["<a><b>x</b><c>y</c></a>", "<a><c>z</c></a>", "<b><c>q</c></b>"]


def make_primary(kind: str, tmp_path):
    if kind == "plain":
        db = LazyXMLDatabase()
    else:
        directory = tmp_path / f"state-{len(list(tmp_path.iterdir()))}"
        db = DurableDatabase(directory)
    for doc in DOCS:
        db.insert(doc)
    return db


def make_service(kind: str, tmp_path, **kwargs) -> DatabaseService:
    return DatabaseService(make_primary(kind, tmp_path), **kwargs)


# ----------------------------------------------------------------------
# field checks: every entry x every required field x {missing, null, bad}

#: A value of the wrong type for each field kind.
WRONG = {
    "int": ["x"],
    "count": ["x", -1],
    "float": ["x"],
    "word": [7, ""],
    "text": [7, ""],
    "flag": ["yes", 1],
    "ops": ["x", [], [1]],
}

#: Numbers of the wrong kind: a boolean is no number, 2.9 no integer and
#: NaN no deadline; checked, not coerced.  Their cases follow the
#: :data:`WRONG` ones, so each case keeps its place in the matrix.
WRONG_NUMBER = {
    "int": [True, 2.9],
    "count": [True, 2.9],
    "float": [True, "nan", float("inf")],
}

#: A well-typed value for each field kind (to fill the *other* fields).
RIGHT = {
    "int": 1, "count": 1, "float": 1.0, "word": "a", "text": "a",
    "flag": True, "ops": [{"op": "compact"}],
}


def good_request(verb: str) -> dict:
    good = {"cmd": verb}
    good.update(
        (f.name, RIGHT[f.kind]) for f in COMMANDS[verb].fields if f.required
    )
    return good


def bad_requests():
    for verb, entry in COMMANDS.items():
        good = good_request(verb)
        for field in entry.fields:
            if field.required:
                missing = dict(good)
                del missing[field.name]
                yield verb, field.name, missing
                yield verb, field.name, {**good, field.name: None}
            for wrong in WRONG[field.kind]:
                yield verb, field.name, {**good, field.name: wrong}
    for verb, entry in COMMANDS.items():
        good = good_request(verb)
        for field in entry.fields:
            for wrong in WRONG_NUMBER.get(field.kind, ()):
                yield verb, field.name, {**good, field.name: wrong}


#: Places in the matrix once held by the cases of fields the verb table
#: no longer has (``twig``'s ``strategy`` at 10-11, ``join``'s
#: ``algorithm`` at 22-23, ``promote``'s ``node`` at 48-50).  They stay
#: taken, so a case id names the same case it always did.
RETIRED_SLOTS = frozenset({10, 11, 22, 23, 48, 49, 50})


def case_ids():
    slot = 0
    for verb, name, _ in bad_requests():
        while slot in RETIRED_SLOTS:
            slot += 1
        yield f"{verb}-{name}-{slot}"
        slot += 1


@pytest.mark.parametrize(
    "verb,name,request_",
    [pytest.param(*case, id=case_id)
     for case, case_id in zip(bad_requests(), case_ids())],
)
def test_bad_field_is_a_protocol_error_and_nothing_happens(
    tmp_path, verb, name, request_
):
    service = make_service("durable", tmp_path)
    primary = service.primary
    before = (primary.last_seq, primary.journal_size, primary.text)
    try:
        with pytest.raises(ProtocolError, match=name):
            execute_request(service, SessionState(1), request_)
        assert (primary.last_seq, primary.journal_size, primary.text) == before
        assert service.health()["counters"]["writes"] == 0
    finally:
        service.close()


def test_every_verb_has_required_field_cases():
    """The matrix above is not vacuous: it covers each required field."""
    covered = {(verb, name) for verb, name, _ in bad_requests()}
    for verb, entry in COMMANDS.items():
        for field in entry.fields:
            assert (verb, field.name) in covered


@pytest.mark.parametrize("budget", [
    {"timeout_ms": "fast"}, {"max_rows": "many"}, {"trace": "yes"},
    {"max_rows": -1}, {"timeout_ms": "nan"}, {"timeout_ms": float("nan")},
    {"timeout_ms": float("-inf")}, {"max_rows": True}, {"max_rows": 1.5},
])
def test_request_wide_fields_are_checked_for_every_verb(tmp_path, budget):
    service = make_service("plain", tmp_path)
    try:
        for verb in COMMANDS:
            with pytest.raises(ProtocolError, match=next(iter(budget))):
                execute_request(
                    service, SessionState(1), {**good_request(verb), **budget}
                )
    finally:
        service.close()


def test_wire_numbers_are_checked_and_line_words_still_read():
    """``true`` and 2.9 are refused, not run as a remove of ``[1, 3)``; a
    text line's words (and a wire ``2.0``) still read as numbers."""
    fields = COMMANDS["remove"].fields
    with pytest.raises(ProtocolError, match="'position'"):
        bind("remove", fields, {"cmd": "remove", "position": True, "length": 2.9})
    with pytest.raises(ProtocolError, match="'length'"):
        bind("remove", fields, {"cmd": "remove", "position": 1, "length": 2.9})
    assert bind("remove", fields, {"position": "3", "length": 2.0}) == {
        "position": 3, "length": 2,
    }
    assert bind("x", _REQUEST_FIELDS, {"timeout_ms": "2.5"})["timeout_ms"] == 2.5


def test_limit_null_is_the_default_and_zero_is_zero(tmp_path):
    service = make_service("plain", tmp_path)
    try:
        session = SessionState(1)
        full = execute_request(service, session, {"cmd": "query", "expr": "a"})
        null = execute_request(
            service, session, {"cmd": "query", "expr": "a", "limit": None}
        )
        assert null == full and not full["truncated"]
        zero = execute_request(
            service, session, {"cmd": "query", "expr": "a", "limit": 0}
        )
        assert zero == {"count": 2, "spans": [], "truncated": True}
    finally:
        service.close()


def test_query_reply_leaves_the_memoised_answer_unflattened(tmp_path):
    """The reply reads its first ``limit`` rows off the path memo's answer
    without indexing it: a slice would flatten the answer and keep the
    copy for the memo's lifetime."""
    service = make_service("plain", tmp_path)
    try:
        session = SessionState(1)
        execute_request(service, session, {"cmd": "pin"})
        reply = execute_request(
            service, session, {"cmd": "query", "expr": "a//c", "limit": 1}
        )
        assert reply["count"] == 2 and reply["truncated"]
        db = session.pinned.db
        answer = db.path_query("a//c")  # the memo's own answer, a hit
        assert isinstance(answer, JoinAnswer) and answer._flat is None
        assert reply["spans"] == [span_row(db, answer[0])]
        session.release()
    finally:
        service.close()


# ----------------------------------------------------------------------
# one reply per verb: shell line == request dict == TCP round trip


def samples(top_sid: int, tail_sid: int):
    """``(line, request)`` per step, in an order that is valid on every
    primary; every table verb appears at least once."""
    return [
        ("ping", {"cmd": "ping"}),
        ("insert 3 <b>in</b>",
         {"cmd": "insert", "position": 3, "fragment": "<b>in</b>"}),
        ("insert end <d><c>t v</c></d>",
         {"cmd": "insert", "fragment": "<d><c>t v</c></d>"}),
        ("query a//b", {"cmd": "query", "expr": "a//b"}),
        ("twig a[b]/c", {"cmd": "twig", "expr": "a[b]/c"}),
        ("join a c", {"cmd": "join", "ancestor": "a", "descendant": "c"}),
        ("join a c child",
         {"cmd": "join", "ancestor": "a", "descendant": "c", "axis": "child"}),
        ("trace query a/c", {"cmd": "query", "expr": "a/c", "trace": True}),
        ("pin", {"cmd": "pin"}),
        ("remove 3 9", {"cmd": "remove", "position": 3, "length": 9}),
        ("query a//b", {"cmd": "query", "expr": "a//b"}),  # pinned: still 2
        ("unpin", {"cmd": "unpin"}),
        ("query a//b", {"cmd": "query", "expr": "a//b"}),
        (f"remove_segment {tail_sid}",
         {"cmd": "remove_segment", "sid": tail_sid}),
        (None, {"cmd": "batch", "ops": [
            {"op": "insert", "fragment": "<c>n</c>", "position": 3},
            {"op": "repack", "sid": 987654},
        ]}),
        (f"repack {top_sid}", {"cmd": "repack", "sid": top_sid}),
        ("compact", {"cmd": "compact"}),
        ("health", {"cmd": "health"}),
        ("stats", {"cmd": "stats"}),
        ("join a", {"cmd": "join", "ancestor": "a"}),  # a field error
    ]


def probe_sids(kind, tmp_path):
    """The sids the sample history will meet, from a throw-away service."""
    with make_service(kind, tmp_path) as service:
        session = SessionState(0)
        top = execute_request(service, session, {"cmd": "query", "expr": "a"})
        execute_request(
            service, session,
            {"cmd": "insert", "position": 3, "fragment": "<b>in</b>"},
        )
        tail = execute_request(
            service, session, {"cmd": "insert", "fragment": "<d><c>t v</c></d>"}
        )
    return top["spans"][0][2], tail["sid"]


#: Status replies carry timings and process-wide counters; these keys are
#: what the same history must agree on.
STABLE = ("durable", "segments", "elements", "document_length")


def normal(verb, reply):
    """A reply with what legitimately differs between two runs removed."""
    if isinstance(reply, ReproError):
        return (type(reply).__name__, str(reply))
    reply = dict(reply)
    reply.pop("net", None)  # the TCP server's own block on health/stats
    if verb in ("health", "stats"):
        return (sorted(reply), [reply[key] for key in STABLE])
    if "trace" in reply:
        reply["trace"] = [span["name"] for span in reply["trace"]]
    return reply


def run_dict(service, steps):
    session = SessionState(1)
    out = []
    for _, request in steps:
        try:
            out.append(execute_request(service, session, dict(request)))
        except ReproError as exc:
            out.append(exc)
    session.release()
    return out


def run_tcp(service, steps):
    async def main():
        server = TcpServer(service)
        await server.start()
        out = []
        try:
            async with await connect("127.0.0.1", server.port) as client:
                for _, request in steps:
                    args = dict(request)
                    try:
                        out.append(await client.request(args.pop("cmd"), **args))
                    except ReproError as exc:
                        out.append(exc)
        finally:
            await server.drain(grace=2.0)
        return out

    return asyncio.run(main())


def run_shell(service, steps):
    """Per step, the lines the shell printed (None for a wire-only step,
    which is run as a dict so the three histories stay the same)."""
    out = io.StringIO()
    shell = ServiceShell(service, io.StringIO(), out)
    printed = []
    for line, request in steps:
        if line is None:
            execute_request(service, shell._session, dict(request))
            printed.append(None)
            continue
        out.seek(0)
        out.truncate()
        assert shell.handle(line)
        printed.append(out.getvalue().splitlines())
    shell._session.release()  # not drain(): the service stays usable
    return printed


@pytest.mark.parametrize("kind", ["plain", "durable"])
def test_the_retired_algorithm_word_is_a_bad_axis(tmp_path, kind):
    """``join a c std``: no field names an algorithm, so the third word is
    the axis, and the line is refused with the typed bad-axis error and
    changes nothing."""
    with make_service(kind, tmp_path) as service:
        primary = service.primary
        before = (primary.text, primary.segment_count)
        (printed,) = run_shell(service, [("join a c std", {"cmd": "join"})])
        assert printed == [
            "error QueryError: axis must be one of "
            "('descendant', 'child'), got 'std'"
        ]
        assert (primary.text, primary.segment_count) == before
        assert service.health()["counters"]["writes"] == 0


@pytest.mark.parametrize("kind", ["plain", "durable"])
def test_every_verb_same_reply_on_every_surface(tmp_path, kind):
    steps = samples(*probe_sids(kind, tmp_path))
    assert {request["cmd"] for _, request in steps} == set(COMMANDS), (
        "every table verb needs a step in samples()"
    )
    services = [make_service(kind, tmp_path) for _ in range(3)]
    try:
        by_dict = run_dict(services[0], steps)
        by_tcp = run_tcp(services[1], steps)
        by_shell = run_shell(services[2], steps)
    finally:
        for service in services:
            service.close()
    for (line, request), a, b, printed in zip(steps, by_dict, by_tcp, by_shell):
        verb = request["cmd"]
        assert normal(verb, a) == normal(verb, b), (kind, request)
        if line is None:
            with pytest.raises(ProtocolError, match="wire only"):
                line_request(verb, "")
            continue
        # The line stands for the same request ...
        words = line.split(None, 1)
        traced = words[0] == "trace"
        if traced:
            words = words[1].split(None, 1)
        from_line = line_request(words[0], words[1] if len(words) > 1 else "")
        if traced:
            from_line["trace"] = True
        entry = COMMANDS[verb]
        if not isinstance(a, ProtocolError):
            assert bind(verb, entry.fields, from_line) == bind(
                verb, entry.fields, request
            )
        # ... and the shell printed that reply.
        if isinstance(a, ProtocolError):
            assert printed == [f"error bad argument: {a}"]
        elif isinstance(a, ReproError):
            assert printed == [f"error {type(a).__name__}: {a}"]
        elif verb in ("health", "stats"):
            assert normal(verb, json.loads(printed[0][3:])) == normal(verb, a)
        else:
            timeless = lambda lines: [  # noqa: E731 - trace spans carry timings
                text for text in lines if not text.startswith("  {")
            ]
            assert timeless(printed) == timeless(render_reply(verb, a))
    # The history did what it says (not three identical failures).
    counts = [r["count"] for (_, q), r in zip(steps, by_dict)
              if q == {"cmd": "query", "expr": "a//b"}]
    assert counts == [2, 2, 1]
    batch = next(r for (_, q), r in zip(steps, by_dict) if q["cmd"] == "batch")
    assert batch["applied"] == 1 and batch["skipped"] == 1
    assert batch["results"][1] is None


@pytest.mark.parametrize("kind", ["plain", "durable"])
def test_query_and_twig_answer_a_branching_pattern_alike(tmp_path, kind):
    """``query`` takes any pattern of the one grammar: a branching one,
    a predicate, a wildcard, as ``twig`` answers them — as a request
    dict, over TCP and as a shell line."""
    patterns = {"a[b]/c": 1, "a[c]": 2, 'a[c="z"]': 1, "*[c]": 3}
    steps = [
        (f"{verb} {expr}", {"cmd": verb, "expr": expr})
        for expr in patterns
        for verb in ("query", "twig")
    ]
    services = [make_service(kind, tmp_path) for _ in range(3)]
    try:
        by_dict = run_dict(services[0], steps)
        by_tcp = run_tcp(services[1], steps)
        by_shell = run_shell(services[2], steps)
    finally:
        for service in services:
            service.close()
    assert by_tcp == by_dict
    assert [r["count"] for r in by_dict[::2]] == list(patterns.values())
    assert by_dict[::2] == by_dict[1::2]
    assert by_shell[::2] == by_shell[1::2]
    assert by_shell[0][0] == "ok 1 match(es)"


def test_shell_rows_are_the_global_spans_remove_consumes(tmp_path):
    """Same inserts and reads through the shell and ``execute_request``:
    same rows — global spans, which ``remove <position> <length>`` takes
    (the segment-local ``record.start`` of the nested ``b`` is 0)."""
    out = io.StringIO()
    with make_service("plain", tmp_path) as by_shell, \
            make_service("plain", tmp_path) as by_dict:
        shell = ServiceShell(by_shell, io.StringIO(), out)
        session = SessionState(1)
        shell.handle("insert 26 <b>nested</b>")
        execute_request(
            by_dict, session,
            {"cmd": "insert", "position": 26, "fragment": "<b>nested</b>"},
        )
        out.seek(0)
        out.truncate()
        shell.handle("query a/b")
        reply = execute_request(by_dict, session, {"cmd": "query", "expr": "a/b"})
        rows = [
            [int(part.split("=")[1]) for part in text.split()]
            for text in out.getvalue().splitlines()[1:]
        ]
        assert [[start, end, sid, level] for sid, start, end, level in rows] \
            == reply["spans"]
        start, end, _, _ = reply["spans"][1]
        assert (start, end) == (26, 39)
        out.seek(0)
        out.truncate()
        shell.handle(f"remove {start} {end - start}")
        assert out.getvalue().startswith("ok removed 1 element record(s)")
        assert by_shell.primary.text == "".join(DOCS)


# ----------------------------------------------------------------------
# wire compatibility: the parent commit's replies, value for value

#: Requests in the shapes ``benchmarks/e2e/surfaces.py`` builds, with the
#: replies the parent commit (PR 18) gave on this history.
#: Its tail insert went in at 41, inside the ``</c>`` of ``<c>z</c>``,
#: which an insert is refused for now; at 39, just before that end tag, it
#: builds the same elements, and every later reply is the parent's.
PARENT_REPLIES = [
    ({"cmd": "ping"}, {"pong": True}),
    ({"cmd": "batch", "ops": [
        {"op": "insert", "fragment": "<a><b>x</b><c>y</c></a>", "position": 0},
        {"op": "insert", "fragment": "<a><c>z</c></a>", "position": 23},
        {"op": "insert", "fragment": "<b>in</b>", "position": 3},
        {"op": "remove_segment", "sid": 99},
    ]}, {"applied": 3, "skipped": 1, "results": [
        {"gp": 0, "sid": 1}, {"gp": 23, "sid": 2}, {"gp": 3, "sid": 3}, None,
    ]}),
    ({"cmd": "insert", "fragment": "<c>tail</c>", "position": 39},
     {"gp": 39, "sid": 4}),
    ({"cmd": "query", "expr": "a/c", "limit": 10},
     {"count": 2, "spans": [[20, 28, 1, 2], [35, 54, 2, 2]],
      "truncated": False}),
    ({"cmd": "query", "expr": "a//b", "limit": 1},
     {"count": 2, "spans": [[12, 20, 1, 2]], "truncated": True}),
    ({"cmd": "twig", "expr": "a[b]/c", "limit": 10},
     {"count": 1, "spans": [[20, 28, 1, 2]], "truncated": False}),
    ({"cmd": "join", "ancestor": "a", "descendant": "c"}, {"pairs": 3}),
    ({"cmd": "remove_segment", "sid": 3}, {"elements_removed": 1}),
    ({"cmd": "query", "expr": "a//b", "limit": 10},
     {"count": 1, "spans": [[3, 11, 1, 2]], "truncated": False}),
]

PARENT_HEALTH_KEYS = [
    "admission", "counters", "document_length", "durable",
    "elements", "epochs", "log_bytes", "readpath",
    "segments", "status",
]
PARENT_STATS_KEYS = sorted(
    set(PARENT_HEALTH_KEYS) - {"status"}
    | {"metric_catalogue", "metrics", "planner"}
)


def test_replies_are_the_parent_commits():
    with DatabaseService(LazyXMLDatabase()) as service:
        session = SessionState(1)
        for request, want in PARENT_REPLIES:
            assert execute_request(service, session, request) == want, request
        health = execute_request(service, session, {"cmd": "health"})
        assert sorted(health) == PARENT_HEALTH_KEYS
        assert (health["segments"], health["elements"],
                health["document_length"]) == (3, 6, 49)
        stats = execute_request(service, session, {"cmd": "stats"})
        assert sorted(stats) == PARENT_STATS_KEYS


def test_a_durable_batch_is_still_one_record(tmp_path):
    with make_service("durable", tmp_path) as service:
        before = service.primary.last_seq
        reply = execute_request(service, SessionState(1), {"cmd": "batch", "ops": [
            {"op": "insert", "fragment": "<e/>"},
            {"op": "insert", "fragment": "<f/>"},
            {"op": "remove", "position": 0, "length": len(DOCS[0])},
        ]})
        assert reply["applied"] == 3
        assert service.primary.last_seq == before + 1


# ----------------------------------------------------------------------
# pinned reads go through the service's one read entry


def test_pinned_read_is_counted_and_admitted(tmp_path):
    config = ServiceConfig(read_limit=1, read_queue_depth=0, admission_wait=0.0)
    with make_service("plain", tmp_path, config=config) as service:
        session = SessionState(1)
        execute_request(service, session, {"cmd": "pin"})
        before = service.health()["counters"]["queries"]
        for request in (
            {"cmd": "query", "expr": "a"},
            {"cmd": "twig", "expr": "a[b]"},
            {"cmd": "join", "ancestor": "a", "descendant": "c"},
        ):
            execute_request(service, session, request)
        assert service.health()["counters"]["queries"] == before + 3
        # The read class is full: a pinned read is shed like any other.
        with service._admission.admit("read", 0):
            for request in (
                {"cmd": "query", "expr": "a"},
                {"cmd": "twig", "expr": "a[b]"},
                {"cmd": "join", "ancestor": "a", "descendant": "c"},
            ):
                with pytest.raises(Busy):
                    execute_request(service, session, request)
        # Budget aborts on a pinned read are counted too.
        with pytest.raises(ResourceExhausted):
            execute_request(
                service, session, {"cmd": "query", "expr": "a//c", "max_rows": 1}
            )
        assert service.health()["counters"]["resource_aborts"] == 1
        session.release()
        assert service.health()["epochs"]["active_pins"] == 0


# ----------------------------------------------------------------------
# tracing is a request field


def test_tcp_client_receives_the_spans_the_shell_prints(tmp_path):
    service = make_service("plain", tmp_path)
    try:
        (printed,) = run_shell(
            service, [("trace twig a[b]/c", {"cmd": "twig"})]
        )
        (reply,) = run_tcp(  # last: the server's drain drains the service
            service, [(None, {"cmd": "twig", "expr": "a[b]/c", "trace": True})]
        )
        names = [span["name"] for span in reply["trace"]]
        assert "twig_query" in names
        assert all({"depth", "start_ms", "dur_ms", "attrs"} <= set(span)
                   for span in reply["trace"])
        assert printed[0] == f"ok 1 match(es), {len(names)} span(s)"
        shell_names = [json.loads(text)["name"] for text in printed
                       if text.startswith("  {")]
        assert shell_names == names
    finally:
        service.close()


def test_only_reads_trace(tmp_path):
    with make_service("plain", tmp_path) as service:
        for verb, entry in COMMANDS.items():
            if entry.kind != "read":
                with pytest.raises(ProtocolError, match="trace"):
                    execute_request(
                        service, SessionState(1),
                        {**good_request(verb), "trace": True},
                    )
        assert service.primary.text == "".join(DOCS)


# ----------------------------------------------------------------------
# a new verb is one table entry


def test_a_throw_away_entry_is_callable_from_shell_and_tcp(tmp_path):
    def echo(service, session, args, ctx):
        return {"said": args["what"] * args["times"]}

    COMMANDS["echo"] = Verb(
        echo, (Field("times", "count", 1), Field("what", "text")),
        summary="{said}", doc="say it again",
    )
    service = make_service("plain", tmp_path)
    try:
        assert "echo [times] <what...>" in reference()
        (printed,) = run_shell(service, [("echo 2 ab c", {"cmd": "echo"})])
        assert printed == ["ok ab cab c"]
        reply, error = run_tcp(service, [
            (None, {"cmd": "echo", "what": "x", "times": 3}),
            (None, {"cmd": "echo"}),
        ])
        assert reply == {"said": "xxx"}
        assert isinstance(error, ProtocolError) and "what" in str(error)
    finally:
        COMMANDS.pop("echo")
        service.close()


# ----------------------------------------------------------------------
# one typed-error-by-name rebuild, two degradations


def test_unknown_error_names_degrade_per_boundary():
    with pytest.raises(Busy, match="later"):
        raise_error_payload({"error": "Busy", "message": "later"})
    for name in ("FutureError", "ValueError", "error_class", "ReproErro"):
        with pytest.raises(NetError, match=name) as excinfo:
            raise_error_payload({"error": name, "message": "m"})
        assert type(excinfo.value) is NetError


@pytest.mark.skipif(
    not hasattr(__import__("os"), "fork"), reason="worker processes need fork"
)
def test_worker_error_that_is_not_ours_is_worker_lost():
    db = ShardedDatabase(2, executor="process")
    try:
        for doc in DOCS:
            db.insert(doc)
        with pytest.raises(WorkerLost, match="ValueError"):
            db.executor.query(0, "no-such-verb", ())
    finally:
        db.close()


# ----------------------------------------------------------------------
# the docs are the table, printed


def test_readme_and_shell_docstring_print_the_table():
    import repro.service.shell as shell

    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    for row in reference().splitlines():
        assert row in shell.__doc__
        assert row.strip() in readme, row
