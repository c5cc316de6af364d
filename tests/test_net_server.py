"""Integration tests for the asyncio TCP front end (happy paths + limits).

Each test runs a real :class:`~repro.net.server.TcpServer` on an
ephemeral loopback port inside ``asyncio.run`` — no mocks between the
client and the database service.  Connection *faults* (corruption,
resets, half-closes) live in ``test_net_faults.py``; this file covers
the contractual behavior: request execution, pipelining, typed errors,
session pinning, deadlines, load shedding, and graceful drain.
"""

from __future__ import annotations

import asyncio
import contextlib
import operator
import threading

import pytest

from repro.errors import (
    ConnectionLost,
    Draining,
    FrameCorrupt,
    Overloaded,
    ProtocolError,
    QueryCancelled,
    QueryError,
    DeadlineExceeded,
    ReproError,
)
from repro.net import client as client_module
from repro.net import server as server_module
from repro.net.client import NetClient, connect
from repro.net.server import NetServerConfig, TcpServer
from repro.service.context import OverBudget, QueryContext
from tests.net_util import make_service, slowop_installed

pytestmark = pytest.mark.timeout(60)


def run_server_test(coro_fn, *, config=None, n=5, service=None, **service_kwargs):
    """Boilerplate: service + started server + drain/close, around a
    coroutine ``coro_fn(service, server, port)``."""

    async def main(service):
        service = service or make_service(n, **service_kwargs)
        server = TcpServer(service, config or NetServerConfig())
        await server.start()
        try:
            return await coro_fn(service, server, server.port)
        finally:
            await server.drain(grace=2.0)
            service.close()

    return asyncio.run(main(service))


def pool_submissions(server) -> list[str]:
    """The verbs the server hands its worker pool from now on, in order."""
    verbs = []
    submit = server._executor.submit

    def counting(fn, *args, **kwargs):
        verbs.append(args[2].get("cmd"))
        return submit(fn, *args, **kwargs)

    server._executor.submit = counting
    return verbs


def loop_calls(name: str) -> list:
    """The calls of the running loop's ``name`` method from now on."""
    loop = asyncio.get_running_loop()
    calls, method = [], getattr(loop, name)

    def recording(*args, **kwargs):
        calls.append(method(*args, **kwargs))
        return calls[-1]

    setattr(loop, name, recording)
    return calls


class TestRequestExecution:
    def test_core_verbs_round_trip(self):
        async def scenario(service, server, port):
            async with await connect("127.0.0.1", port) as client:
                assert (await client.ping())["pong"] is True
                q = await client.query("name")
                assert q["count"] == 5 and len(q["spans"]) == 5
                assert not q["truncated"]
                j = await client.join("registration", "name")
                assert j["pairs"] == 5
                r = await client.insert(
                    "<registration><name>net</name></registration>"
                )
                assert r["sid"] > 0
                assert (await client.query("name"))["count"] == 6
                h = await client.health()
                assert h["status"] in ("ok", "warning", "degraded")
                assert h["net"]["connections_open"] == 1
                s = await client.stats()
                assert s["net"]["counters"]["requests"] >= 5

        run_server_test(scenario)

    def test_span_limit_truncates_not_errors(self):
        async def scenario(service, server, port):
            async with await connect("127.0.0.1", port) as client:
                q = await client.query("name", limit=2)
                assert q["count"] == 5
                assert len(q["spans"]) == 2
                assert q["truncated"]

        run_server_test(scenario)

    def test_pipelining_many_requests_one_connection(self, monkeypatch):
        # The in-flight caps are enforced eagerly (reserved at dispatch),
        # so a pipelining client must stay within the budget the WELCOME
        # advertises — this test sizes the budget to the burst; staying
        # under a smaller cap via shed-and-retry is TestLoadShedding's
        # territory.
        monkeypatch.setattr(server_module, "MAX_INFLIGHT_PER_CONN", 64)

        async def scenario(service, server, port):
            async with await connect("127.0.0.1", port) as client:
                # WELCOME and status() report the caps read at use.
                assert client.server_limits["max_inflight"] == 64
                assert server.status()["limits"]["max_inflight_per_conn"] == 64
                results = await asyncio.gather(
                    *(client.query("name") for _ in range(50))
                )
                assert all(r["count"] == 5 for r in results)

        run_server_test(scenario)

    def test_typed_errors_reraise_client_side(self):
        async def scenario(service, server, port):
            async with await connect("127.0.0.1", port) as client:
                with pytest.raises(QueryError):
                    await client.query("//absolute-not-allowed")
                with pytest.raises(ProtocolError, match="unknown command"):
                    await client.request("frobnicate")
                with pytest.raises(ProtocolError, match="expr"):
                    await client.request("query")
                # The connection survives every typed failure.
                assert (await client.ping())["pong"] is True

        run_server_test(scenario)

    def test_request_deadline_propagates_to_context(self):
        async def scenario(service, server, port):
            with slowop_installed():
                async with await connect("127.0.0.1", port) as client:
                    with pytest.raises(DeadlineExceeded):
                        await client.request(
                            "slowop", seconds=5.0, timeout_ms=50
                        )
                    assert (await client.ping())["pong"] is True

        run_server_test(scenario)

    def test_client_deadline_drops_the_late_reply(self):
        async def scenario(service, server, port):
            with slowop_installed():
                async with await connect("127.0.0.1", port) as client:
                    with pytest.raises(DeadlineExceeded, match="'slowop'"):
                        await client.request("slowop", seconds=0.5, timeout=0.05)
                    while server.status()["inflight"]:  # the late reply...
                        await asyncio.sleep(0.02)
                    await asyncio.sleep(0.05)  # ...reaches the client
                    assert (await client.ping())["pong"] is True
                    # A reply in time cancels the deadline it armed.
                    armed = loop_calls("call_at")
                    assert (await client.ping(timeout=5.0))["pong"] is True
                    assert armed and all(timer.cancelled() for timer in armed)

        run_server_test(scenario)


class TestProtocolDiscipline:
    """Unit-level contracts of the request handlers themselves."""

    def test_query_spans_computed_under_the_snapshot_pin(self):
        """Regression: span rows must be built while the read's epoch pin
        is held.  The moment ``service.read()`` returns, a retired
        snapshot buffer can become the writer buffer and be mutated in
        place — so this test hands the handler a revocable proxy and
        revokes it the instant the read returns."""
        from repro.net.protocol import SessionState, execute_request

        service = make_service(5)
        real_read = service.read

        class RevocableDb:
            def __init__(self, db):
                self.__dict__["_db"] = db
                self.__dict__["_live"] = True

            def __getattr__(self, name):
                if not self.__dict__["_live"]:
                    raise AssertionError(
                        f"snapshot used after its pin was released: .{name}"
                    )
                return getattr(self.__dict__["_db"], name)

        def revoking_read(fn, *, context=None, **kwargs):
            box = {}

            def wrapper(db, ctx):
                box["proxy"] = RevocableDb(db)
                return fn(box["proxy"], ctx)

            result = real_read(wrapper, context=context, **kwargs)
            box["proxy"].__dict__["_live"] = False  # pin released: recycled
            return result

        service.read = revoking_read
        try:
            session = SessionState(1)
            reply = execute_request(
                service, session, {"cmd": "query", "expr": "name"}
            )
            assert reply["count"] == 5
            assert len(reply["spans"]) == 5
            assert not reply["truncated"]
        finally:
            service.close()

    def test_bad_field_types_are_protocol_errors(self):
        """A field that will not coerce is the client's fault — typed
        ProtocolError naming the field, raised before any work runs."""
        from repro.net.protocol import SessionState, execute_request

        service = make_service(2)
        try:
            session = SessionState(1)
            with pytest.raises(ProtocolError, match="limit"):
                execute_request(
                    service, session,
                    {"cmd": "query", "expr": "name", "limit": "lots"},
                )
            with pytest.raises(ProtocolError, match="timeout_ms"):
                execute_request(
                    service, session, {"cmd": "ping", "timeout_ms": "fast"}
                )
            with pytest.raises(ProtocolError, match="position"):
                execute_request(
                    service, session,
                    {"cmd": "insert", "fragment": "<a>x</a>",
                     "position": "end-ish"},
                )
        finally:
            service.close()

    def test_internal_bugs_are_not_blamed_on_the_client(self):
        """A TypeError thrown by a defect deep in a handler must NOT be
        converted into a client-blamed 'bad arguments' ProtocolError —
        it propagates, for the server to report as an internal error."""
        from repro.net.protocol import COMMANDS, SessionState, execute_request
        from repro.service.commands import Verb

        def _cmd_buggy(service, session, args, ctx):
            return len(None)  # an internal defect, not a client mistake

        service = make_service(2)
        COMMANDS["buggy"] = Verb(_cmd_buggy)
        try:
            session = SessionState(1)
            with pytest.raises(TypeError):
                execute_request(service, session, {"cmd": "buggy"})
        finally:
            COMMANDS.pop("buggy", None)
            service.close()


class TestSessionPinning:
    def test_pinned_session_has_repeatable_reads(self):
        async def scenario(service, server, port):
            pinned = await connect("127.0.0.1", port)
            writer = await connect("127.0.0.1", port)
            try:
                assert (await pinned.pin())["epoch"] >= 0
                before = (await pinned.query("name"))["count"]
                await writer.insert(
                    "<registration><name>new</name></registration>"
                )
                # The writer sees its own write; the pinned session does
                # not — repeatable reads against the pinned epoch.
                assert (await writer.query("name"))["count"] == before + 1
                assert (await pinned.query("name"))["count"] == before
                assert (await pinned.unpin())["unpinned"] is True
                assert (await pinned.query("name"))["count"] == before + 1
            finally:
                await pinned.close()
                await writer.close()

        run_server_test(scenario)

    def test_pin_released_on_clean_close(self):
        async def scenario(service, server, port):
            client = await connect("127.0.0.1", port)
            await client.pin()
            assert service.health()["epochs"]["active_pins"] >= 1
            await client.close()
            for _ in range(200):
                if not server.status()["connections_open"]:
                    break
                await asyncio.sleep(0.01)
            assert service.health()["epochs"]["active_pins"] == 0

        run_server_test(scenario)


class TestLoadShedding:
    def test_per_connection_inflight_cap_sheds_typed(self, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_INFLIGHT_PER_CONN", 2)

        async def scenario(service, server, port):
            with slowop_installed():
                async with await connect("127.0.0.1", port) as client:
                    slow = [
                        asyncio.ensure_future(
                            client.request("slowop", seconds=1.0)
                        )
                        for _ in range(2)
                    ]
                    await asyncio.sleep(0.1)  # both dispatched, running
                    with pytest.raises(Overloaded, match="connection"):
                        await client.request("slowop", seconds=1.0)
                    done = await asyncio.gather(*slow)
                    assert all(r["slept"] == 1.0 for r in done)
            assert server.status()["counters"]["sheds"] >= 1

        run_server_test(scenario)

    def test_global_inflight_cap_sheds_typed(self, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_INFLIGHT", 2)
        monkeypatch.setattr(server_module, "MAX_INFLIGHT_PER_CONN", 2)

        async def scenario(service, server, port):
            with slowop_installed():
                busy = await connect("127.0.0.1", port)
                bystander = await connect("127.0.0.1", port)
                try:
                    slow = [
                        asyncio.ensure_future(
                            busy.request("slowop", seconds=1.0)
                        )
                        for _ in range(2)
                    ]
                    await asyncio.sleep(0.1)
                    with pytest.raises(Overloaded, match="server"):
                        await bystander.request("slowop", seconds=1.0)
                    await asyncio.gather(*slow)
                    # Capacity freed: the bystander is served now.
                    assert (await bystander.ping())["pong"] is True
                finally:
                    await busy.close()
                    await bystander.close()

        run_server_test(scenario)

    def test_connection_cap_sheds_at_the_door(self):
        config = NetServerConfig(max_conns=1)

        async def scenario(service, server, port):
            async with await connect("127.0.0.1", port) as first:
                with pytest.raises(Overloaded, match="connection limit"):
                    await connect("127.0.0.1", port)
                # The admitted connection is unaffected by the shed.
                assert (await first.ping())["pong"] is True
            for _ in range(200):
                if not server.status()["connections_open"]:
                    break
                await asyncio.sleep(0.01)
            async with await connect("127.0.0.1", port) as again:
                assert (await again.ping())["pong"] is True

        run_server_test(scenario, config=config)


class TestGracefulDrain:
    def test_drain_refuses_new_lets_inflight_finish(self):
        config = NetServerConfig(drain_grace=3.0)

        async def scenario(service, server, port):
            with slowop_installed():
                client = await connect("127.0.0.1", port)
                inflight = asyncio.ensure_future(
                    client.request("slowop", seconds=0.3)
                )
                await asyncio.sleep(0.05)
                drain = asyncio.ensure_future(server.drain())
                await asyncio.sleep(0.05)
                # In-flight work finishes normally inside the grace.
                assert (await inflight)["slept"] == 0.3
                summary = await drain
                assert summary["drained"] is True
                assert summary["aborted"] == 0
                assert client.goodbye is not None
                assert client.goodbye["reason"] == "draining"
                await client.close(goodbye=False)

        run_server_test(scenario, config=config)

    def test_drain_cancels_stragglers_after_grace(self):
        self._drain_cancels_straggler("slowop")

    def test_drain_cancels_a_moved_read_straggler(self):
        """A read that outlived the loop budget finishes on the pool, where
        drain cancels it like any straggler."""
        self._drain_cancels_straggler("slowread")

    def _drain_cancels_straggler(self, verb):
        config = NetServerConfig(drain_grace=0.1)

        async def scenario(service, server, port):
            with slowop_installed():
                client = await connect("127.0.0.1", port)
                inflight = asyncio.ensure_future(
                    client.request(verb, seconds=30.0)
                )
                await asyncio.sleep(0.05)
                summary = await server.drain()
                assert summary["aborted"] == 1
                with pytest.raises(QueryCancelled):
                    await inflight
                await client.close(goodbye=False)
            # No pins, no in-flight leaked through the forced abort.
            assert service.health()["epochs"]["active_pins"] == 0
            assert server.status()["inflight"] == 0
            counters = server.status()["counters"]
            assert counters["moved_reads"] == (verb == "slowread")
            assert counters["loop_reads"] == 0

        run_server_test(scenario, config=config)

    def test_draining_server_refuses_requests_typed(self):
        async def scenario(service, server, port):
            client = await connect("127.0.0.1", port)
            await server.drain(grace=0.1)
            # Connected-before-drain client gets typed refusals... if the
            # drain closed the connection already, ConnectionLost is the
            # other legal outcome.
            try:
                await client.ping()
            except (Draining, Exception):
                pass
            # ...and fresh connections cannot be made at all.
            with pytest.raises(Exception):
                await connect("127.0.0.1", port)
            await client.close(goodbye=False)

        run_server_test(scenario)

    def test_shutdown_command_triggers_drain(self):
        async def scenario(service, server, port):
            async with await connect("127.0.0.1", port) as client:
                reply = await client.request("shutdown")
                assert reply["draining"] is True
            for _ in range(300):
                if server.status()["draining"]:
                    break
                await asyncio.sleep(0.01)
            assert server.status()["draining"]
            assert service.health()["status"] == "draining"

        run_server_test(scenario)


_READS = [
    ("query", {"expr": "user/name"}),
    ("query", {"expr": "registration//interest"}),
    ("join", {"ancestor": "registration", "descendant": "interest"}),
    ("twig", {"expr": "registration[user/name]//interest"}),
]


class _SteppingClock:
    """A clock that moves 1 ms each time it is read."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 0.001
        return self.now


def _updated_service():
    """A service whose published buffer holds join, path and twig memos
    that the last insert left stale, so the next read refreshes them."""
    from repro.net.protocol import SessionState, execute_request

    service = make_service(20)
    session = SessionState(1)
    for fragment in ("<a/>", "<registration><user><name>n</name></user>"
                     "<interest/></registration>"):
        for cmd, fields in _READS:
            execute_request(service, session, {"cmd": cmd, **fields})
        service.insert(fragment)
    return service


def _memos(service) -> tuple:
    from repro.core.readpath import join_key
    from repro.twig import memo, parse_twig

    with service.snapshot() as snap:
        tid = snap.db.log.tags.tid_of
        readpath = snap.db.readpath
        tags = snap.db.log.tags
        return (
            readpath.memo(
                join_key(tid("registration"), tid("interest"), "descendant")
            ),
            *(
                readpath.memo(memo.memo_key(parse_twig(fields["expr"]), tags))
                for cmd, fields in _READS
                if cmd != "join"
            ),
        )


_WRITE = "<registration><name>w</name></registration>"


async def _writes(client) -> list:
    """One request of each write verb over ``client``; their replies."""
    first = await client.insert(_WRITE)
    gp = first["gp"]
    return [
        first,
        await client.request("insert", fragment="<x/>", position=gp),
        await client.request("remove", position=gp, length=len("<x/>")),
        await client.request("remove_segment", sid=first["sid"]),
        await client.request("batch", ops=[
            {"op": "insert", "fragment": _WRITE},
            {"op": "remove_segment", "sid": 10**9},  # no such segment
        ]),
    ]


class TestWhereARequestRuns:
    """An idle server answers a read, an in-memory write and ping/pin/unpin
    on its event loop; a read past the loop budget, or a write that would
    wait or do more than commit, moves to the pool; everything else always
    runs on the pool."""

    def test_idle_server_answers_reads_on_the_loop(self):
        async def scenario(service, server, port):
            async with await connect("127.0.0.1", port) as client:
                # Cold, a twig compiles its plan and columns (a few ms
                # here): it may outlive the budget and move.
                for cmd, fields in _READS:
                    await client.request(cmd, **fields)
                counters = server.status()["counters"]
                assert counters["loop_reads"] + counters["moved_reads"] == 4
                loop_reads = counters["loop_reads"]
                pool = pool_submissions(server)
                for cmd, fields in _READS:
                    await client.request(cmd, **fields)
                assert pool == []
                # No write clones a buffer: the first runs on the loop too.
                await client.insert(_WRITE)
                await client.insert(_WRITE)
                await client.ping()
                await client.request("pin")
                await client.request("unpin")
                await client.health()
            assert pool == ["health"]
            counters = server.status()["counters"]
            assert counters["loop_reads"] == loop_reads + 4
            assert (counters["loop_writes"], counters["moved_writes"]) == (2, 0)

        run_server_test(scenario)

    def test_read_beside_another_request_uses_the_pool(self):
        async def scenario(service, server, port):
            pool = pool_submissions(server)
            with slowop_installed():
                async with await connect("127.0.0.1", port) as client:
                    slow = asyncio.ensure_future(
                        client.request("slowop", seconds=0.3)
                    )
                    await asyncio.sleep(0.05)
                    assert (await client.query("name"))["count"] == 5
                    await slow
            assert pool == ["slowop", "query"]
            assert server.status()["counters"]["loop_reads"] == 0

        run_server_test(scenario)

    def test_moved_read_replies_as_a_loop_read(self, monkeypatch):
        """A read over the budget is abandoned at its first checkpoint and
        re-run on the pool: the same reply, counted once as a query, never
        as a deadline abort or a net error."""

        async def scenario(service, server, port):
            reads = _READS + [("query", {"expr": "user/name", "trace": True})]
            async with await connect("127.0.0.1", port) as client:
                for cmd, fields in _READS:  # warm: nothing cold moves
                    await client.request(cmd, **fields)
                before = server.status()["counters"]
                queries = service.health()["counters"]["queries"]
                pool = pool_submissions(server)
                on_loop = [await client.request(c, **f) for c, f in reads]
                monkeypatch.setattr(server_module, "LOOP_BUDGET", -1.0)
                moved = [await client.request(c, **f) for c, f in reads]
            assert moved[:-1] == on_loop[:-1]
            # The abandoned attempt leaves no span in the moved read's trace.
            assert [span["name"] for span in moved[-1].pop("trace")] == [
                span["name"] for span in on_loop[-1].pop("trace")
            ]
            assert moved[-1] == on_loop[-1]
            assert pool == [cmd for cmd, _ in reads]
            after = server.status()["counters"]
            assert after["loop_reads"] - before["loop_reads"] == 5
            assert after["moved_reads"] - before["moved_reads"] == 5
            assert after["errors"] == 0
            served = service.health()["counters"]
            assert served["queries"] - queries == 10
            assert served["deadline_aborts"] == 0

        run_server_test(scenario, n=20)

    @pytest.mark.parametrize("checkpoints", range(12))
    def test_abandoned_attempt_leaves_the_memos_as_found(self, checkpoints):
        """The loop attempt stops at any checkpoint, mid-refresh included;
        it publishes no memo, and the pool's re-run answers as a read on
        a twin service that was never interrupted."""
        from repro.net.protocol import SessionState, execute_request

        service, twin = _updated_service(), _updated_service()
        session = SessionState(1)
        try:
            assert None not in _memos(service)
            # Each read publishes one _memos() entry: a path is a twig
            # with no branch, so it reads no join memo.
            for cmd, fields in _READS:
                request = {"cmd": cmd, **fields}
                found = _memos(service)
                attempt = QueryContext(
                    clock=_SteppingClock(), check_every=1
                ).attempt(checkpoints * 0.001 + 0.0005)
                try:
                    reply = execute_request(service, session, request, attempt)
                except OverBudget:
                    assert all(map(operator.is_, _memos(service), found))
                    reply = execute_request(service, session, request)
                assert reply == execute_request(twin, session, request)
            assert service.health()["counters"]["deadline_aborts"] == 0
            assert service.health()["epochs"]["active_pins"] == 0
        finally:
            service.close()
            twin.close()

    def test_moved_write_replies_as_a_loop_write(self, monkeypatch):
        """A write over the budget stops at its checkpoint (after the
        parse, before the commit) and re-runs on the pool: the same
        replies, the same primary and the same epoch as on the loop, and
        every write applied exactly once."""
        from repro.storage import dumps

        def run(budget):
            monkeypatch.setattr(server_module, "LOOP_BUDGET", budget)

            async def scenario(service, server, port):
                service.insert("<w/>")  # the writer buffer owes a write now
                pool = pool_submissions(server)
                async with await connect("127.0.0.1", port) as client:
                    replies = await _writes(client)
                health = service.health()
                return (replies, dumps(service.primary),
                        health["epochs"]["epoch"], health["counters"]["writes"],
                        pool, server.status()["counters"])

            return run_server_test(scenario)

        on_loop, moved = run(server_module.LOOP_BUDGET), run(-1.0)
        assert moved[:4] == on_loop[:4]
        assert on_loop[3] == 1 + 5  # the warm-up write and the five
        assert (on_loop[4], moved[4]) == (
            [], ["insert", "insert", "remove", "remove_segment", "batch"]
        )
        for counters, runs in ((on_loop[5], (5, 0)), (moved[5], (0, 5))):
            assert (counters["loop_writes"], counters["moved_writes"]) == runs
            assert counters["errors"] == 0

    @pytest.mark.parametrize("taken", ["writer lock", "write ticket"])
    def test_write_finding_its_slot_taken_moves(self, taken, monkeypatch):
        """The loop attempt never waits for the writer lock or the write
        admission ticket: it moves, the loop keeps answering, and the
        write commits once the slot frees."""
        from repro.service import server as service_server

        # The moved write queues for the slot on the pool.
        monkeypatch.setattr(service_server, "ADMISSION_WAIT", 10.0)

        async def scenario(service, server, port):
            service.insert("<w/>")  # the writer buffer owes a write now
            held, release = threading.Event(), threading.Event()

            def hold():
                if taken == "writer lock":
                    slot = service._writer_lock
                else:
                    slot = service._admission.admit("write", 1.0)
                with slot:
                    held.set()
                    release.wait(10)

            holder = threading.Thread(target=hold)
            holder.start()
            assert held.wait(10)
            pool = pool_submissions(server)
            try:
                async with await connect("127.0.0.1", port) as client, \
                        await connect("127.0.0.1", port) as other:
                    write = asyncio.ensure_future(client.insert(_WRITE))
                    await asyncio.sleep(0.05)
                    for _ in range(3):
                        assert (await other.ping())["pong"] is True
                    assert not write.done()
                    release.set()
                    assert (await write)["sid"] > 0
            finally:
                release.set()
                holder.join(10)
            assert pool == ["insert", "ping", "ping", "ping"]
            counters = server.status()["counters"]
            assert (counters["loop_writes"], counters["moved_writes"]) == (0, 1)
            assert service.health()["counters"]["writes"] == 2
            assert service.health()["admission"]["write"]["rejected"] == 0

        run_server_test(scenario)

    def test_write_behind_a_pinned_spare_moves(self, monkeypatch):
        """A session's pin can hold the buffer the next write must catch
        up and commit to.  That write moves instead of holding the loop for the drain wait
        while the ``unpin`` that would end it waits behind it."""
        from repro.service import snapshot

        monkeypatch.setattr(snapshot, "DRAIN_TIMEOUT", 10.0)

        async def scenario(service, server, port):
            service.insert("<w/>")  # the writer buffer owes a write now
            pool = pool_submissions(server)
            async with await connect("127.0.0.1", port) as reader, \
                    await connect("127.0.0.1", port) as writer:
                await reader.request("pin")
                await writer.insert(_WRITE)  # the pinned buffer retires
                write = asyncio.ensure_future(writer.insert(_WRITE))
                await asyncio.sleep(0.05)
                assert not write.done()  # its catch-up waits for the pin
                assert (await reader.request("unpin"))["unpinned"] is True
                assert (await write)["sid"] > 0
            assert pool == ["insert", "unpin"]
            counters = server.status()["counters"]
            assert (counters["loop_writes"], counters["moved_writes"]) == (1, 1)
            epochs = service.health()["epochs"]
            assert (epochs["clone_fallbacks"], epochs["active_pins"]) == (0, 0)

        run_server_test(scenario)

    @pytest.mark.parametrize("kind", ["durable"])
    def test_io_bound_writes_never_start_on_the_loop(self, tmp_path, kind):
        from repro.durability.database import DurableDatabase
        from repro.service.server import DatabaseService

        service = DatabaseService(DurableDatabase(tmp_path / "d"))
        assert not service.writes_in_memory

        async def scenario(service, server, port):
            pool = pool_submissions(server)
            async with await connect("127.0.0.1", port) as client:
                for i in range(3):
                    assert (await client.insert(f"<a><b>{i}</b></a>"))["sid"] >= 0
            assert pool == ["insert"] * 3
            counters = server.status()["counters"]
            assert (counters["loop_writes"], counters["moved_writes"]) == (0, 0)

        run_server_test(scenario, service=service)

    def test_loop_writes_racing_writer_threads_apply_once(self, monkeypatch):
        """Wire writes, each alone in flight, race three in-process writer
        threads (more than the cores) for the write slot and the writer
        lock under a short switch interval: every write applies exactly
        once, and the published replica equals the primary."""
        import sys

        from repro.service import server as service_server
        from repro.storage import dumps

        monkeypatch.setattr(service_server, "ADMISSION_WAIT", 10.0)

        async def scenario(service, server, port):
            service.insert("<w/>")  # the writer buffer owes a write now
            stop, rounds = threading.Event(), []

            def writer():
                while not stop.is_set():
                    service.remove_segment(service.insert("<t/>").sid)
                    rounds.append(1)

            threads = [threading.Thread(target=writer) for _ in range(3)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                async with await connect("127.0.0.1", port) as client:
                    for i in range(40):
                        await client.insert(f"<n>{i}</n>")
            finally:
                stop.set()
                for thread in threads:
                    thread.join(10)
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            counters = server.status()["counters"]
            assert counters["loop_writes"] + counters["moved_writes"] == 40
            assert counters["errors"] == 0
            writes = service.health()["counters"]["writes"]
            assert writes == 1 + 40 + 2 * len(rounds)
            text = service.primary.text
            assert [text.count(f"<n>{i}</n>") for i in range(40)] == [1] * 40
            assert "<t/>" not in text
            with service.snapshot() as snap:
                assert dumps(snap.db) == dumps(service.primary)

        run_server_test(scenario)

    def test_loop_budget_is_inside_the_switch_interval(self):
        import sys

        assert 0 < server_module.LOOP_BUDGET <= sys.getswitchinterval()

    @pytest.mark.perf_smoke
    def test_idle_reads_make_no_thread_hop(self):
        """The hop gate, as counts: on an idle in-memory server 50
        sequential queries are 50 loop reads and no pool submission; 10
        inserts and 10 removes are 20 loop writes and no pool submission.
        Neither end creates a task or arms a timer.

        The loop attempt's budget is read off the service's clock, which is
        frozen here: no attempt runs out of it, so the counts depend on the
        rule alone and never on how loaded the machine is."""

        async def scenario(service, server, port):
            # Warm, as a served corpus is: one write (write 1) has swapped
            # the buffers, and the published one holds the memo.
            service.insert("<w/>")
            with service.snapshot() as snap:
                snap.db.path_query("user/name")
            pool = pool_submissions(server)
            async with await connect("127.0.0.1", port) as client:
                tasks, timers = loop_calls("create_task"), loop_calls("call_at")
                for _ in range(50):
                    assert (await client.query("user/name"))["count"] == 5
                assert (pool, len(tasks), len(timers)) == ([], 0, 0)
                fragments = [f"<registration><name>{i}</name></registration>"
                             for i in range(10)]
                gps = [(await client.insert(f))["gp"] for f in fragments]
                for gp, fragment in reversed(list(zip(gps, fragments))):
                    await client.request("remove", position=gp, length=len(fragment))
                assert (len(tasks), len(timers)) == (0, 0)
            assert pool == []
            counters = server.status()["counters"]
            assert (counters["loop_reads"], counters["moved_reads"]) == (50, 0)
            assert (counters["loop_writes"], counters["moved_writes"]) == (20, 0)
            assert service.primary.text.endswith("<w/>")

        run_server_test(scenario, clock=lambda: 0.0)


class TestIdleCatchUp:
    """Once a write's reply is out, the loop replays the write into the
    retired epoch buffer before it reads the next frame, so the next write
    finds its writer buffer current; where that would wait, it is skipped
    and the next write catches up as before."""

    @pytest.mark.perf_smoke
    def test_idle_catch_up_leaves_the_next_write_nothing_to_replay(self):
        """Count gate: on an idle in-memory server, after the first write
        no write's ``writer()`` replays an op, there is one idle catch-up
        per write served, and nothing is owed after the last reply.  The
        first write catches up the in-process write before it, which no
        reply followed."""

        async def scenario(service, server, port):
            service.insert("<w/>")  # the writer buffer owes a write now
            epochs, replays = service._epochs, []
            real_writer = epochs.writer

            def writer():
                replays.append(epochs.metrics()["pending_ops"])
                return real_writer()

            epochs.writer = writer
            pool = pool_submissions(server)
            async with await connect("127.0.0.1", port) as client:
                fragments = [f"<registration><name>{i}</name></registration>"
                             for i in range(10)]
                gps = [(await client.insert(f))["gp"] for f in fragments]
                for gp, fragment in reversed(list(zip(gps, fragments))):
                    await client.request("remove", position=gp, length=len(fragment))
                metrics = epochs.metrics()
            assert replays == [1] + [0] * 19
            assert (metrics["idle_catch_ups"], metrics["pending_ops"]) == (20, 0)
            assert metrics["replica_clones"] == 1
            assert pool == []
            counters = server.status()["counters"]
            assert (counters["loop_writes"], counters["moved_writes"]) == (20, 0)

        run_server_test(scenario, clock=lambda: 0.0)

    def test_pinned_retired_buffer_is_left_to_the_next_write(self, monkeypatch):
        """A session's pin on the buffer a write retires makes its idle
        catch-up a no-op: it neither waits for the pin nor clones.  The
        next write moves to the pool and catches up there, as it did
        before there was an idle catch-up."""
        from repro.service import snapshot

        monkeypatch.setattr(snapshot, "DRAIN_TIMEOUT", 10.0)

        async def scenario(service, server, port):
            pool = pool_submissions(server)
            async with await connect("127.0.0.1", port) as reader, \
                    await connect("127.0.0.1", port) as writer:
                await reader.request("pin")
                await writer.insert(_WRITE)  # the pinned buffer retires
                epochs = service.health()["epochs"]
                assert (epochs["pending_ops"], epochs["idle_catch_ups"]) == (1, 0)
                assert (epochs["drain_waits"], epochs["clone_fallbacks"]) == (0, 0)
                write = asyncio.ensure_future(writer.insert(_WRITE))
                await asyncio.sleep(0.05)
                assert not write.done()  # its catch-up waits for the pin
                assert (await reader.request("unpin"))["unpinned"] is True
                assert (await write)["sid"] > 0
                epochs = service.health()["epochs"]
            assert pool == ["insert", "unpin"]
            assert (epochs["drain_waits"], epochs["clone_fallbacks"]) == (1, 0)
            assert (epochs["idle_catch_ups"], epochs["pending_ops"]) == (1, 0)
            assert (epochs["replica_clones"], epochs["active_pins"]) == (1, 0)

        run_server_test(scenario)

    def test_failed_idle_catch_up_rebuilds_and_the_loop_keeps_serving(
        self, monkeypatch
    ):
        import repro.service.snapshot as snapshot_module
        from repro.storage import dumps
        from tests.oracle import ReferenceDatabase

        async def scenario(service, server, port):
            reference = ReferenceDatabase()
            reference.insert(service.primary.text)
            real_apply = snapshot_module.apply_op

            def diverge(db, op, parsed=None):
                monkeypatch.setattr(snapshot_module, "apply_op", real_apply)
                raise RuntimeError("injected replay fault")

            monkeypatch.setattr(snapshot_module, "apply_op", diverge)

            async def matches_reference(client):
                names = await client.query("name")
                assert [tuple(row[:2]) for row in names["spans"]] == \
                    reference.elements("name")
                pairs = await client.join("registration", "name")
                assert pairs["pairs"] == len(reference.join("registration", "name"))

            async with await connect("127.0.0.1", port) as client:
                await client.insert(_WRITE)  # its idle catch-up fails
                reference.insert(_WRITE)
                epochs = service.health()["epochs"]
                assert (epochs["replica_rebuilds"], epochs["replica_clones"]) == (1, 2)
                assert (epochs["idle_catch_ups"], epochs["pending_ops"]) == (1, 0)
                await matches_reference(client)
                await client.insert(_WRITE)
                reference.insert(_WRITE)
                await matches_reference(client)
            assert server.status()["counters"]["errors"] == 0
            epochs = service.health()["epochs"]
            assert (epochs["replica_rebuilds"], epochs["idle_catch_ups"]) == (1, 2)
            with service.snapshot() as snap:
                assert dumps(snap.db) == dumps(service.primary)
                assert snap.db.text == reference.text

        run_server_test(scenario)


class TestHandshake:
    def test_wire_version_mismatch_refused_typed(self):
        async def scenario(service, server, port):
            from repro.net import frame as wire
            from repro.net.frame import FrameDecoder, encode_frame
            from repro.net.protocol import decode_payload, encode_payload

            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(encode_frame(
                wire.T_HELLO, 1, encode_payload({"version": 99}),
            ))
            await writer.drain()
            decoder = FrameDecoder()
            frames = []
            while not frames:
                data = await reader.read(65536)
                assert data, "server closed without a typed refusal"
                frames = decoder.feed(data)
            assert frames[0].type == wire.T_ERROR
            payload = decode_payload(frames[0].payload)
            assert payload["error"] == "ProtocolError"
            assert "version" in payload["message"]
            writer.close()
            await writer.wait_closed()

        run_server_test(scenario)

    def test_first_frame_must_be_hello(self):
        async def scenario(service, server, port):
            from repro.net import frame as wire
            from repro.net.frame import FrameDecoder, encode_frame
            from repro.net.protocol import decode_payload, encode_payload

            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(encode_frame(
                wire.T_REQUEST, 1, encode_payload({"cmd": "ping"}),
            ))
            await writer.drain()
            decoder = FrameDecoder()
            frames = []
            while not frames:
                data = await reader.read(65536)
                assert data
                frames = decoder.feed(data)
            payload = decode_payload(frames[0].payload)
            assert frames[0].type == wire.T_ERROR
            assert "hello" in payload["message"]
            writer.close()
            await writer.wait_closed()

        run_server_test(scenario)

    def test_handshake_timeout_closes_silent_connections(self, monkeypatch):
        monkeypatch.setattr(server_module, "HANDSHAKE_TIMEOUT", 0.2)

        async def scenario(service, server, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            data = await asyncio.wait_for(reader.read(65536), 5.0)
            assert data == b""  # server gave up on us
            writer.close()
            await writer.wait_closed()
            assert server.status()["counters"]["timeouts"] >= 1
            assert server.status()["connections_open"] == 0

        run_server_test(scenario)

    def test_idle_timeout_closes_with_goodbye(self, monkeypatch):
        monkeypatch.setattr(server_module, "IDLE_TIMEOUT", 0.2)

        async def scenario(service, server, port):
            from repro.net import frame as wire
            from repro.net.protocol import decode_payload

            client = await connect("127.0.0.1", port)
            assert (await client.ping())["pong"] is True
            for _ in range(300):
                if client.goodbye is not None:
                    break
                await asyncio.sleep(0.02)
            assert client.goodbye is not None
            assert "idle" in client.goodbye["reason"]
            await client.close(goodbye=False)
            assert server.status()["counters"]["timeouts"] >= 1

        run_server_test(scenario)

    def test_inflight_work_defers_idle_timeout(self, monkeypatch):
        monkeypatch.setattr(server_module, "IDLE_TIMEOUT", 0.15)

        async def scenario(service, server, port):
            with slowop_installed():
                async with await connect("127.0.0.1", port) as client:
                    # Takes several idle windows; the connection must
                    # survive because work is in flight for it.
                    reply = await client.request("slowop", seconds=0.6)
                    assert reply["slept"] == 0.6

        run_server_test(scenario)


    def test_connect_to_a_silent_server_times_out_typed(self, monkeypatch):
        async def silent(reader, writer):
            pass

        assert _connect_twice(monkeypatch, silent, hang_ups=2) == [
            ConnectionLost, ConnectionLost
        ]

    def test_connect_to_a_closing_server_is_connection_lost(self, monkeypatch):
        async def closing(reader, writer):
            writer.close()

        assert _connect_twice(monkeypatch, closing, hang_ups=0) == [
            ConnectionLost, ConnectionLost
        ]

    def test_connect_to_a_garbage_server_is_frame_corrupt(self, monkeypatch):
        async def garbage(reader, writer):
            writer.write(b"\xde\xad\xbe\xef" * 16)

        assert _connect_twice(monkeypatch, garbage, hang_ups=2) == [
            FrameCorrupt, FrameCorrupt
        ]

    def test_welcome_and_goodbye_in_one_write_connects(self):
        """A drain racing a connect: the client is welcomed and told."""
        from repro.net import frame as wire
        from repro.net.frame import encode_frame
        from repro.net.protocol import encode_payload

        async def main():
            async def draining(reader, writer):
                await reader.read(65536)  # the HELLO
                writer.write(
                    encode_frame(wire.T_WELCOME, 1, encode_payload({"session": 7}))
                    + encode_frame(wire.T_GOODBYE, 0, encode_payload(
                        {"reason": "draining"}
                    ))
                )
                writer.close()

            listener = await asyncio.start_server(draining, "127.0.0.1", 0)
            client = await connect("127.0.0.1", listener.sockets[0].getsockname()[1])
            try:
                assert client.session_id == 7
                assert client.goodbye == {"reason": "draining"}
            finally:
                await client.close()
                listener.close()

        asyncio.run(main())


def _connect_twice(monkeypatch, handle, *, hang_ups: int) -> list:
    """Connect one client twice to a server that runs ``handle(reader,
    writer)`` on each accept and then, unless it closed, reads until the
    client hangs up.  Returns the error type each connect raised, once
    the server has seen ``hang_ups`` clients close their socket."""
    monkeypatch.setattr(client_module, "_CONNECT_TIMEOUT", 0.2)

    async def main():
        hung_up = []

        async def serve(reader, writer):
            await handle(reader, writer)
            if not writer.is_closing():
                with contextlib.suppress(ConnectionError):
                    await reader.read()
                hung_up.append(True)
                writer.close()

        listener = await asyncio.start_server(serve, "127.0.0.1", 0)
        client = NetClient("127.0.0.1", listener.sockets[0].getsockname()[1])
        raised = []
        for _ in range(2):
            with pytest.raises(ReproError) as caught:
                await client.connect()
            raised.append(type(caught.value))
        for _ in range(200):
            if len(hung_up) >= hang_ups:
                break
            await asyncio.sleep(0.01)
        assert len(hung_up) == hang_ups
        listener.close()
        return raised

    return asyncio.run(main())


class TestServeTcpCli:
    """``python -m repro serve DB --tcp`` wires the server into the CLI:
    banner advertises the bound port, SIGTERM and the ``shutdown``
    request both drain to a clean exit 0."""

    @pytest.fixture()
    def snapshot(self, tmp_path):
        from repro.storage import save
        from tests.net_util import make_db

        path = tmp_path / "db.json"
        save(make_db(5), str(path))
        return path

    def _spawn(self, snapshot, *extra):
        import re
        import subprocess
        import sys
        import time
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", str(snapshot),
                "--tcp", "127.0.0.1:0", *extra,
            ],
            cwd=root,
            env={"PYTHONPATH": str(root / "src")},
            stderr=subprocess.PIPE,
            text=True,
        )
        port = None
        deadline = time.monotonic() + 20
        try:
            while time.monotonic() < deadline:
                line = proc.stderr.readline()
                if not line:
                    break
                found = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
                if found:
                    port = int(found.group(1))
                    break
            assert port is not None, "server never printed its port"
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        return proc, port

    def test_sigterm_drains_to_exit_zero(self, snapshot):
        import signal

        proc, _port = self._spawn(snapshot, "--drain-grace", "2")
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=20) == 0
        proc.stderr.close()

    def test_shutdown_request_serves_then_drains(self, snapshot):
        proc, port = self._spawn(snapshot)

        async def drive():
            client = await connect("127.0.0.1", port)
            assert (await client.ping())["pong"] is True
            reply = await client.query("name")
            assert reply["count"] == 5
            await client.request("shutdown")
            await client.close(goodbye=False)

        try:
            asyncio.run(drive())
            assert proc.wait(timeout=20) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()
