"""A write parses its fragment once, and a journaled op is checked once
(perf-smoke count gates).

The lazy insert of the paper costs one parse of the new segment plus local
labels (Section 3.3).  Every write path that wraps the core — the journal's
validate → journal → apply, recovery, batches, and the service's
epoch buffers — hands the parse that checked a fragment on to
every database that applies it.  Counted by wrapping
:func:`repro.xml.parser.parse`; the journal's verdict travels with it,
counted by wrapping ``check_insert`` / ``check_removal`` /
``check_segment_removal``.
And that one parse builds no tree: no write path constructs an
:class:`~repro.xml.model.XMLElement`.
"""

from __future__ import annotations

import random
import re
import threading
import time

import pytest

import repro.xml.parser as parser
from repro.core.database import LazyXMLDatabase
from repro.durability.database import DurableDatabase
from repro.errors import InvalidSegmentError, SegmentNotFoundError
from repro.service import DatabaseService
from repro.service import server as service_server
from repro.storage import dumps
from repro.xml.model import XMLElement

DOC = "<lib><shelf><book><t>a</t></book></shelf></lib>"
FRAGMENT = "<book><t>n</t><p/></book>"
BATCH = [{"op": "insert", "fragment": FRAGMENT} for _ in range(4)]


@pytest.fixture
def parses(monkeypatch):
    """A list that gains one entry per call of the XML parser."""
    calls: list[str] = []
    real = parser.parse

    def counted(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(parser, "parse", counted)
    return calls


def _count(calls, write) -> int:
    before = len(calls)
    write()
    return len(calls) - before


def _served(kind, tmp_path) -> DatabaseService:
    """A service over a ``kind`` primary holding DOC."""
    primary = DurableDatabase(tmp_path) if kind == "durable" else LazyXMLDatabase()
    primary.insert(DOC)
    return DatabaseService(primary)


@pytest.mark.perf_smoke
def test_bare_writes_parse_once(parses):
    db = LazyXMLDatabase()
    assert _count(parses, lambda: db.insert(DOC)) == 1
    assert _count(parses, lambda: db.apply_batch(BATCH)) == 4


@pytest.mark.perf_smoke
def test_durable_writes_and_recovery_parse_once(parses, tmp_path):
    durable = DurableDatabase(tmp_path)
    assert _count(parses, lambda: durable.insert(DOC)) == 1
    assert _count(parses, lambda: durable.insert(DOC)) == 1
    assert _count(parses, lambda: durable.apply_batch(BATCH)) == 4
    expected = durable.db.text
    durable.close()
    # The journal holds 2 inserts and a 4-insert batch.
    reopened = []
    assert _count(parses, lambda: reopened.append(DurableDatabase(tmp_path))) == 6
    assert reopened[0].db.text == expected
    reopened[0].close()


@pytest.mark.perf_smoke
@pytest.mark.parametrize("kind", ["plain", "durable"])
def test_served_writes_parse_once(parses, tmp_path, kind):
    with _served(kind, tmp_path) as svc:
        # Steady state: both epoch buffers have replayed a write already.
        svc.remove_segment(svc.insert(FRAGMENT).sid)
        receipt = []
        assert _count(parses, lambda: receipt.append(svc.insert(FRAGMENT))) == 1
        assert _count(parses, lambda: svc.remove_segment(receipt[0].sid)) == 0
        assert _count(parses, lambda: svc.apply_batch(BATCH)) == 4
        with svc.snapshot() as snap:
            assert snap.db.text == svc.primary.text


# ----------------------------------------------------------------------
# A journaled op is checked once: the verdict validate_op makes before the
# journal append travels with the parse to the apply.

_CHECKS = ("check_insert", "check_removal", "check_segment_removal")


def _made(insert=0, removal=0, segment=0) -> dict[str, int]:
    return dict(zip(_CHECKS, (insert, removal, segment)))


@pytest.fixture
def checks(monkeypatch):
    """A list that gains the method name of every ``check_insert`` /
    ``check_removal`` / ``check_segment_removal`` call on any database."""
    calls: list[str] = []
    for name in _CHECKS:
        def counted(self, *args, _real=getattr(LazyXMLDatabase, name), _name=name):
            calls.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(LazyXMLDatabase, name, counted)
    return calls


def _checks(calls, write) -> dict[str, int]:
    before = len(calls)
    write()
    made = calls[before:]
    return {name: made.count(name) for name in _CHECKS}


@pytest.mark.perf_smoke
def test_journaled_ops_are_checked_once(checks, tmp_path):
    """Count gate, as check calls: a durable insert 1 check_insert, a
    durable remove_segment 1 check_segment_removal and no check_removal
    (it was 1: the span verdict's descent), a durable batch of 4 inserts
    4 (its sub-ops are checked as they apply), and recovery of a journal
    of 2 inserts and 1 remove_segment 2 + 1."""
    durable = DurableDatabase(tmp_path)
    assert _checks(checks, lambda: durable.insert(DOC)) == _made(insert=1)
    receipt = durable.insert(FRAGMENT)
    assert _checks(
        checks, lambda: durable.remove_segment(receipt.sid)
    ) == _made(segment=1)
    assert _checks(checks, lambda: durable.apply_batch(BATCH)) == _made(insert=4)
    expected = durable.db.text
    durable.close()
    reopened = []
    assert _checks(
        checks, lambda: reopened.append(DurableDatabase(tmp_path))
    ) == _made(insert=6, segment=1)
    assert reopened[0].db.text == expected
    reopened[0].close()
    # The journal without the batch: 2 inserts and 1 remove_segment.
    other = DurableDatabase(tmp_path / "other")
    other.insert(DOC)
    other.remove_segment(other.insert(FRAGMENT).sid)
    other.close()
    assert _checks(
        checks, lambda: DurableDatabase(tmp_path / "other").close()
    ) == _made(insert=2, segment=1)


@pytest.mark.perf_smoke
def test_served_writes_on_a_plain_primary_check_at_commit_and_catch_up(checks):
    """A served write on an in-memory primary brings no verdict: its
    commit checks it, and so does the catch-up of the buffer that
    publish retired, at the next write.  A remove_segment is checked
    from its node both times (check_removal was 1 each)."""
    with _served("plain", None) as svc:
        svc.remove_segment(svc.insert(FRAGMENT).sid)  # steady state
        receipt = []
        assert _checks(
            checks, lambda: receipt.append(svc.insert(FRAGMENT))
        ) == _made(insert=1, segment=1)
        assert _checks(
            checks, lambda: svc.remove_segment(receipt[0].sid)
        ) == _made(insert=1, segment=1)
        assert _checks(checks, lambda: svc.insert(FRAGMENT)) == _made(
            insert=1, segment=1)


# ----------------------------------------------------------------------
# A served write applies its op twice: the commit to the writer buffer,
# and the catch-up of the buffer that publish retired, at the next write.

@pytest.fixture
def applies(monkeypatch):
    """A list that gains the database of every top-level ``apply_op``
    call (a batch is one call) the service, the journal or the epoch
    store makes."""
    import repro.durability.database as durable_module
    import repro.service.server as server_module
    import repro.service.snapshot as snapshot_module

    calls: list = []
    for module in (durable_module, server_module, snapshot_module):
        def counted(db, op, parsed=None, _real=module.apply_op):
            calls.append(db)
            return _real(db, op, parsed)

        monkeypatch.setattr(module, "apply_op", counted)
    return calls


@pytest.mark.perf_smoke
@pytest.mark.parametrize("kind", ["plain", "durable"])
def test_served_writes_apply_twice(applies, tmp_path, kind):
    """Steady state, each write applies 2 ops to the primary's database:
    its own commit and the previous write's catch-up.  (Before the writer
    buffer was the primary: 3, 3 and 5.)"""
    with _served(kind, tmp_path) as svc:
        svc.insert(FRAGMENT)  # the writer buffer owes a write from now on
        receipt = []
        writes = [
            lambda: receipt.append(svc.insert(FRAGMENT)),
            lambda: svc.remove_segment(receipt[0].sid),
            lambda: svc.apply_batch(BATCH),
            lambda: svc.insert(FRAGMENT),
        ]
        counts = []
        for write in writes:
            applies.clear()
            write()
            counts.append(list(applies))
        with svc.snapshot() as snap:
            primary = {id(svc._base), id(snap.db)}  # its two buffers
        for dbs in counts:
            assert len(dbs) == 2 and {id(db) for db in dbs} <= primary, kind


@pytest.mark.perf_smoke
@pytest.mark.parametrize("kind", ["plain", "durable"])
def test_served_writes_apply_twice_over_tcp(applies, tmp_path, monkeypatch, kind):
    """The TCP twin: each write is still 2 ``apply_op`` calls on the
    primary's two buffers, its commit and its own catch-up, which runs
    after the reply (on the loop for a plain primary, whose writes run
    there too; a durable primary's writes run on the pool) and leaves
    nothing owed when the server reads the next frame."""
    import asyncio

    from repro.net import server as net_server
    from repro.net.client import connect

    svc = _served(kind, tmp_path)
    owed_at_read: list[int] = []
    real_received = net_server._Connection.data_received

    def received(self, data):
        owed_at_read.append(svc.health()["epochs"]["pending_ops"])
        real_received(self, data)

    monkeypatch.setattr(net_server._Connection, "data_received", received)

    async def main():
        server = net_server.TcpServer(svc)
        await server.start()
        counts = []

        async def counted(request):
            applies.clear()
            reply = await request
            counts.append(list(applies))
            return reply

        try:
            async with await connect("127.0.0.1", server.port) as client:
                receipt = await counted(client.insert(FRAGMENT))
                await counted(client.request("remove_segment", sid=receipt["sid"]))
                await counted(client.request("batch", ops=BATCH))
                await counted(client.insert(FRAGMENT))
            with svc.snapshot() as snap:
                primary = {id(svc._base), id(snap.db)}  # its two buffers
        finally:
            await server.drain(grace=2.0)
        return counts, primary, server.status()["counters"]

    try:
        counts, primary, counters = asyncio.run(main())
        for dbs in counts:
            assert len(dbs) == 2 and {id(db) for db in dbs} <= primary, kind
        assert owed_at_read and set(owed_at_read) == {0}
        assert svc.health()["epochs"]["idle_catch_ups"] == 4
        assert counters["errors"] == 0
        assert counters["loop_writes"] == (4 if kind == "plain" else 0)
    finally:
        svc.close()


@pytest.mark.perf_smoke
@pytest.mark.parametrize("kind", ["plain", "durable"])
def test_epoch_store_clones_once(tmp_path, kind):
    with _served(kind, tmp_path) as svc:
        for i in range(25):
            svc.remove_segment(svc.insert(FRAGMENT).sid)
        epochs = svc.health()["epochs"]
        assert epochs["publishes"] >= 50
        assert (epochs["replica_clones"], epochs["clone_fallbacks"]) == (1, 0)


@pytest.fixture
def trees(monkeypatch):
    """A list that gains one entry per :class:`XMLElement` constructed."""
    built: list[str] = []
    real = XMLElement.__init__

    def counted(self, tag, *args, **kwargs):
        built.append(tag)
        real(self, tag, *args, **kwargs)

    monkeypatch.setattr(XMLElement, "__init__", counted)
    return built


@pytest.mark.perf_smoke
def test_no_write_path_builds_a_tree(trees, tmp_path):
    db = LazyXMLDatabase()
    assert _count(trees, lambda: db.insert(DOC)) == 0
    assert _count(trees, lambda: db.apply_batch(BATCH)) == 0
    durable = DurableDatabase(tmp_path / "durable")
    assert _count(trees, lambda: durable.insert(DOC)) == 0
    assert _count(trees, lambda: durable.apply_batch(BATCH)) == 0
    durable.close()
    reopened: list[DurableDatabase] = []

    def reopen():
        reopened.append(DurableDatabase(tmp_path / "durable"))

    assert _count(trees, reopen) == 0
    for primary in (LazyXMLDatabase(), reopened[0]):
        primary.insert(DOC)
        with DatabaseService(primary) as svc:
            svc.remove_segment(svc.insert(FRAGMENT).sid)
            assert _count(trees, lambda: svc.insert(FRAGMENT)) == 0
            assert _count(trees, lambda: svc.apply_batch(BATCH)) == 0
    reopened[0].close()
    # The count sees a tree when one is built.
    assert _count(trees, lambda: parser.parse(DOC).root) == 4


# ----------------------------------------------------------------------
# The catch-up replays from the primary's parse: parity over a seeded
# history.

_FRAGMENTS = ("<a><b>x</b></a>", "<a><c/><b>y</b></a>", "<b/>")


def _alive(db, sid: int) -> bool:
    try:
        db.log.node(sid)
    except SegmentNotFoundError:
        return False
    return True


def _nested_points(text: str) -> list[int]:
    """Just after a ``<lib>`` or ``<a>`` start tag: a gap between tokens
    that no span removed below ever straddles."""
    return [m.end() for m in re.finditer(r"<(?:lib|a)>", text)]


_KINDS = ("top", "nested", "remove_segment", "span", "batch", "refused")


def _write(rng, svc, base, sids: list[int], kind: str) -> str:
    """One seeded write of ``kind``; returns the kind it made (a remove
    with nothing to remove inserts instead)."""
    text = base.text
    fragment = rng.choice(_FRAGMENTS)
    live = [sid for sid in sids if _alive(base, sid)]
    spans = [m.span() for m in re.finditer(r"<b>x</b>|<c/>", text)]
    if kind == "remove_segment" and live:
        svc.remove_segment(rng.choice(live))
    elif kind == "span" and spans:
        start, end = rng.choice(spans)
        svc.remove(start, end - start)
    elif kind == "batch":
        ops = [
            {"op": "insert", "fragment": fragment},
            {"op": "remove_segment", "sid": 10**9},  # no such segment: skipped
            {"op": "insert", "fragment": "<b/>",
             "position": rng.choice(_nested_points(text))},
        ]
        first, skipped, last = svc.apply_batch(ops)
        assert skipped is None and None not in (first, last)
        sids.extend((first.sid, last.sid))
    elif kind == "refused":
        inside_tag = text.index("<lib>") + 2
        with pytest.raises(InvalidSegmentError):
            svc.insert(fragment, inside_tag)
    else:
        kind = "nested" if kind == "nested" else "top"
        position = rng.choice(_nested_points(text)) if kind == "nested" else None
        sids.append(svc.insert(fragment, position).sid)
    return kind


@pytest.mark.parametrize("durable", [False, True], ids=["plain", "durable"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_replicas_replayed_from_the_primary_parse_match_it(tmp_path, durable, seed):
    rng = random.Random(seed)
    kinds = [kind for kind in _KINDS for _ in range(7)]
    rng.shuffle(kinds)
    primary = DurableDatabase(tmp_path) if durable else LazyXMLDatabase()
    primary.insert(DOC)
    sids: list[int] = []
    made = set()

    def base():
        """The writer buffer, caught up: the authoritative database."""
        return getattr(svc.primary, "db", svc.primary)

    with DatabaseService(primary) as svc:
        for kind in kinds:
            publishes = svc.health()["epochs"]["publishes"]
            kind = _write(rng, svc, base(), sids, kind)
            made.add(kind)
            # A refused write publishes nothing; any other publishes once.
            assert svc.health()["epochs"]["publishes"] == publishes + (
                kind != "refused"
            )
            # Each buffer is published in turn: the writer buffer, a
            # write behind, replays the previous op from the primary's
            # parse, then commits this one.
            with svc.snapshot() as snap:
                base().check_invariants()
                assert dumps(snap.db) == dumps(base())
                snap.db.check_invariants()
    assert made == set(_KINDS)


# ----------------------------------------------------------------------
# An append is positioned by the writer, under its lock.

def test_append_queued_behind_a_remove_lands_at_the_end_it_finds(monkeypatch):
    primary = LazyXMLDatabase()
    primary.insert(DOC)
    doomed = primary.insert(FRAGMENT)
    entered, release = threading.Event(), threading.Event()
    real_remove_segment = primary.remove_segment

    def held_remove_segment(sid):
        entered.set()
        assert release.wait(10)
        return real_remove_segment(sid)

    primary.remove_segment = held_remove_segment
    monkeypatch.setattr(service_server, "ADMISSION_WAIT", 10.0)
    outcome: dict = {}
    with DatabaseService(primary) as svc:
        remover = threading.Thread(
            target=lambda: outcome.update(removed=svc.remove_segment(doomed.sid))
        )
        remover.start()
        assert entered.wait(10)

        def append():
            try:
                outcome["receipt"] = svc.insert("<tail/>")
            except Exception as exc:  # noqa: BLE001 - reported below
                outcome["error"] = exc

        appender = threading.Thread(target=append)
        appender.start()
        # The append is queued for the write slot the remove holds.
        deadline = time.monotonic() + 10
        while svc.health()["admission"]["write"]["waiting"] < 1:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        release.set()
        remover.join(10)
        appender.join(10)
        assert not remover.is_alive() and not appender.is_alive()
        assert "error" not in outcome, outcome.get("error")
        assert outcome["removed"].elements_removed == 3
        assert svc.primary.text == DOC + "<tail/>"
        with svc.snapshot() as snap:
            assert snap.db.text == svc.primary.text


def test_served_durable_writes_journal_what_direct_writes_do(tmp_path):
    # The wire spells an insert's fields position first; the journal
    # record is the one DurableDatabase.insert writes all the same.
    served = DurableDatabase(tmp_path / "served")
    direct = DurableDatabase(tmp_path / "direct")
    with DatabaseService(served) as svc:
        svc.apply({"op": "insert", "fragment": DOC})
        svc.apply({"op": "insert", "position": 5, "fragment": FRAGMENT})
        svc.apply({"op": "remove", "position": 5, "length": len(FRAGMENT)})
        svc.apply_batch(BATCH)
    direct.insert(DOC)
    direct.insert(FRAGMENT, 5)
    direct.remove(5, len(FRAGMENT))
    direct.apply_batch(BATCH)
    direct.close()
    assert served.journal_path.read_bytes() == direct.journal_path.read_bytes()
