"""Shared helpers for the network front-end test suites."""

from __future__ import annotations

import contextlib
import time

from repro.core.database import LazyXMLDatabase
from repro.service.commands import COMMANDS, Field, Verb
from repro.service.server import DatabaseService
from repro.workloads.scenarios import registration_stream


def make_db(n: int = 5) -> LazyXMLDatabase:
    """A query-ready database over ``n`` registration documents."""
    db = LazyXMLDatabase()
    for fragment in registration_stream(n):
        db.insert(fragment)
    db.prepare_for_query()
    return db


def make_service(n: int = 5, **service_kwargs) -> DatabaseService:
    """A DatabaseService over ``n`` registration documents, query-ready."""
    return DatabaseService(make_db(n), **service_kwargs)


def _cmd_slowop(service, session, args, ctx):
    """Test-only verb: busy-wait ``seconds`` at cooperative checkpoints.

    Exercises exactly what a long join exercises — the QueryContext
    deadline/cancel machinery — but with a controllable duration, so
    shed/cancel/drain tests are deterministic instead of racing real
    query latencies.
    """
    deadline = time.monotonic() + args["seconds"]
    while time.monotonic() < deadline:
        ctx.check_deadline()
        time.sleep(0.005)
    return {"slept": args["seconds"]}


def _cmd_slowread(service, session, args, ctx):
    """Test-only read verb: ``slowop`` under an epoch pin.  An idle server
    starts it on the event loop; it outlives the loop budget at its second
    checkpoint and finishes on the worker pool."""
    return service.read(
        lambda db, context: _cmd_slowop(service, session, args, context),
        context=ctx, snapshot=session.pinned,
    )


@contextlib.contextmanager
def slowop_installed():
    """Temporarily register the ``slowop`` (status) and ``slowread``
    (read) verbs in the verb table."""
    seconds = (Field("seconds", "float", 0.5),)
    COMMANDS["slowop"] = Verb(_cmd_slowop, seconds)
    COMMANDS["slowread"] = Verb(_cmd_slowread, seconds, kind="read")
    try:
        yield
    finally:
        COMMANDS.pop("slowop", None)
        COMMANDS.pop("slowread", None)
