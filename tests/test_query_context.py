"""Tests for cooperative query cancellation (:mod:`repro.service.context`).

Covers the :class:`QueryContext` unit behaviour and — more importantly —
the threading of deadlines and resource budgets through the join and
path-query engines: an abort must surface as a *typed* exception at a
checkpoint, and because query code is read-only the database must be
byte-identical afterwards.
"""

from __future__ import annotations

import pytest

from repro.core.database import LazyXMLDatabase
from repro.errors import (
    DeadlineExceeded,
    QueryCancelled,
    ResourceExhausted,
)
from repro.joins.stack_tree import std_join
from repro.service.context import QueryContext
from repro.storage import dumps
from repro.workloads.scenarios import registration_stream


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def populated_db(n=6):
    db = LazyXMLDatabase()
    for fragment in registration_stream(n):
        db.insert(fragment)
    db.prepare_for_query()
    return db


class TestQueryContextUnit:
    def test_defaults_are_unbounded(self):
        ctx = QueryContext()
        assert ctx.deadline is None
        assert ctx.remaining() is None
        for _ in range(1000):
            ctx.tick()
        ctx.charge_rows(10**9)

    def test_timeout_and_deadline_are_exclusive(self):
        with pytest.raises(ValueError):
            QueryContext(timeout=1.0, deadline=5.0)

    def test_timeout_becomes_deadline(self):
        clock = FakeClock(100.0)
        ctx = QueryContext(timeout=2.5, clock=clock)
        assert ctx.deadline == pytest.approx(102.5)
        assert ctx.remaining() == pytest.approx(2.5)

    def test_deadline_raises_only_after_expiry(self):
        clock = FakeClock()
        ctx = QueryContext(timeout=10.0, clock=clock, check_every=1)
        ctx.tick()
        clock.now = 10.1
        with pytest.raises(DeadlineExceeded):
            ctx.tick()

    def test_tick_amortizes_clock_reads(self):
        clock = FakeClock()
        ctx = QueryContext(timeout=5.0, clock=clock, check_every=64)
        clock.now = 99.0  # already expired, but not yet observed
        for _ in range(63):
            ctx.tick()
        with pytest.raises(DeadlineExceeded):
            ctx.tick()  # 64th tick reads the clock

    def test_check_deadline_is_unconditional(self):
        clock = FakeClock()
        ctx = QueryContext(timeout=1.0, clock=clock)
        clock.now = 2.0
        with pytest.raises(DeadlineExceeded):
            ctx.check_deadline()

    def test_row_budget(self):
        ctx = QueryContext(max_result_rows=10)
        ctx.charge_rows(10)
        with pytest.raises(ResourceExhausted):
            ctx.charge_rows(1)

    def test_explicit_cancel(self):
        ctx = QueryContext()
        ctx.cancel("client went away")
        with pytest.raises(QueryCancelled, match="client went away"):
            ctx.tick()

    def test_typed_hierarchy(self):
        assert issubclass(DeadlineExceeded, QueryCancelled)
        assert issubclass(ResourceExhausted, QueryCancelled)


class TestCancellationInQueries:
    """Deadline/budget enforcement inside the actual engines."""

    @pytest.mark.parametrize("algorithm", ["lazy", "std"])
    def test_expired_deadline_aborts_join(self, algorithm):
        db = populated_db()
        clock = FakeClock()
        ctx = QueryContext(timeout=0.5, clock=clock, check_every=1)
        clock.now = 1.0
        join = std_join if algorithm == "std" else LazyXMLDatabase.structural_join
        with pytest.raises(DeadlineExceeded):
            join(db, "registration", "interest", context=ctx)

    def test_row_budget_aborts_join(self):
        db = populated_db()
        full = db.structural_join("registration", "interest")
        assert len(full) > 1
        ctx = QueryContext(max_result_rows=len(full) - 1)
        with pytest.raises(ResourceExhausted):
            db.structural_join("registration", "interest", context=ctx)

    def test_row_budget_aborts_path_query(self):
        db = populated_db()
        full = db.path_query("registration//interest")
        ctx = QueryContext(max_result_rows=len(full) - 1)
        with pytest.raises(ResourceExhausted):
            db.path_query("registration//interest", context=ctx)

    def test_path_row_budget_is_charged_with_the_answer(self):
        """A path query's rows are its answer's, charged once — not its
        step joins' pairs: six matches pass a budget of 6."""
        db = populated_db()
        expression = "registration/contact/address/city"
        full = db.path_query(expression)
        assert len(full) == 6
        got = db.path_query(expression, context=QueryContext(max_result_rows=6))
        assert list(got) == list(full)
        with pytest.raises(ResourceExhausted):
            db.path_query(expression, context=QueryContext(max_result_rows=5))

    def test_row_budget_aborts_zero_step_path_query(self):
        db = populated_db()
        assert len(db.path_query("registration")) == 6
        with pytest.raises(ResourceExhausted):
            db.path_query("registration", context=QueryContext(max_result_rows=5))

    def test_deadline_aborts_path_query(self):
        db = populated_db()
        clock = FakeClock()
        ctx = QueryContext(timeout=0.1, clock=clock, check_every=1)
        clock.now = 1.0
        with pytest.raises(DeadlineExceeded):
            db.path_query("registration//interest", context=ctx)

    def test_abort_leaves_database_untouched(self):
        """The acceptance drill: abort mid-join, state byte-identical,
        next query succeeds."""
        db = populated_db()
        before = dumps(db)
        full = db.structural_join("registration", "interest")
        ctx = QueryContext(max_result_rows=1)
        with pytest.raises(ResourceExhausted):
            db.structural_join("registration", "interest", context=ctx)
        assert dumps(db) == before
        db.check_invariants()
        assert db.structural_join("registration", "interest") == full

    def test_generous_budget_changes_nothing(self):
        db = populated_db()
        ctx = QueryContext(timeout=60.0, max_result_rows=10**6)
        with_ctx = db.structural_join("registration", "interest", context=ctx)
        without = db.structural_join("registration", "interest")
        assert with_ctx == without
        assert ctx.rows == len(with_ctx)
        assert ctx.ticks > 0
