"""A path is answered from the twig memo: same answers, local cost.

A path is a twig pattern with no branch, so ``path_query`` reads the twig
memo (:mod:`repro.twig.memo`) that ``twig_query`` of the same chain reads:
per pattern node and segment the elements matching so far, and after an
update only the segments the element index's journal wrote are recomputed
(DESIGN.md §4e).  What that must not change, and what it must buy:

- a path query equals the from-scratch semi-join chain — same records, same
  ``(sid, start)`` order — after every step of the join memo's random
  update histories, and an immediate repeat recomputes no entry;
- ``path_query`` and ``twig_query`` of one chain share one memo entry;
- the path query after a tail insert recomputes one segment entry per
  step, after taking it back none, on 250 forms and on 4 000 alike, and
  the pair takes less than twice as long on the larger corpus;
- a query that aborts publishes nothing.
"""

from __future__ import annotations

import statistics
import time
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.database import LazyXMLDatabase
from repro.core.join import JoinAnswer
from repro.core.readpath import MEMOS_KEPT
from repro.errors import DeadlineExceeded
from repro.obs.trace import Trace
from repro.service.context import QueryContext
from repro.twig import memo as memo_module
from repro.twig import parse_twig
from tests.helpers import semi_join_path
from tests.test_join_chunks import (
    _GP_TIE,
    _HISTORY,
    _budget_db,
    _contexts,
    _replay,
)
from tests.test_log_maintenance import _form, _loaded

_TAGS = ("a", "b", "c")
_SEPARATORS = ("//", "/")


def _paths(steps: int) -> list[str]:
    """Every path of ``steps`` steps over ``_TAGS``, both axes."""
    out = []
    for tags in product(_TAGS, repeat=steps + 1):
        for separators in product(_SEPARATORS, repeat=steps):
            out.append(tags[0] + "".join(map("".join, zip(separators, tags[1:]))))
    return out


#: Every 1-step path, checked on every history step; the longer ones are
#: sampled per example.
_ONE_STEP = _paths(1)
_LONGER = _paths(2) + _paths(3)

#: A history the two mutations of the refresh must fail: an insert after
#: the memo is warm (a refresh that skips the written sids misses it) and
#: a write that trims the journal past the memo (a refresh that reads the
#: trimmed journal as "nothing written" misses the insert before it).
_MUTATION_KILLERS = [("insert", 0, 0), ("insert", 2, 3), ("trim", 0, 0)]


def _path_key(db: LazyXMLDatabase, expression: str) -> tuple:
    """The twig memo key the path's chain is stored under."""
    return memo_module.memo_key(parse_twig(expression), db.log.tags)


def _traced(db: LazyXMLDatabase, expression: str, method: str = "path_query"):
    """The answer and the ``twig_query`` span's attributes (``memo``,
    ``refreshed``: the segment entries recomputed)."""
    context = QueryContext(trace=Trace())
    answer = getattr(db, method)(expression, context=context)
    (span,) = [s for s in context.trace.spans if s.name == "twig_query"]
    return answer, span.attrs


def _checker(paths):
    def check(db: LazyXMLDatabase) -> None:
        """Each path: memo answer == oracle, in order; a repeat recomputes
        no entry (no :meth:`repro.twig.memo._Refresh._entry` call) and
        hands out the same answer."""
        db.prepare_for_query()
        calls = []
        real = memo_module._Refresh._entry

        def entry(refresh, node, sid):
            calls.append(sid)
            return real(refresh, node, sid)

        with mock.patch.object(memo_module._Refresh, "_entry", entry):
            for expression in paths:
                got = db.path_query(expression)
                assert list(got) == semi_join_path(db, expression), expression
                made = len(calls)
                again = db.path_query(expression)
                assert len(calls) == made, expression
                assert again is got or not got, expression

    return check


_SAMPLE = st.lists(st.sampled_from(_LONGER), min_size=8, max_size=8, unique=True)


@settings(max_examples=150, deadline=None)
@given(_HISTORY, _SAMPLE)
@example(_GP_TIE, _LONGER[:8])
@example(_MUTATION_KILLERS, _LONGER[:8])
def test_ld_history_path_memo_equals_semi_join(ops, sample):
    _replay("dynamic", ops, _checker(_ONE_STEP + sample))


@settings(max_examples=60, deadline=None)
@given(_HISTORY, _SAMPLE)
@example(_GP_TIE, _LONGER[:8])
@example(_MUTATION_KILLERS, _LONGER[:8])
def test_ls_history_path_memo_equals_semi_join(ops, sample):
    _replay("static", ops, _checker(_ONE_STEP + sample))


def test_answer_is_the_memo_in_sid_then_start_order():
    db = LazyXMLDatabase()
    db.insert("<a><b>1</b><b>2</b></a>")
    db.insert("<b><c/></b>", 0)  # sid 2, before sid 1 in the document
    db.insert("<b>3</b>", db.text.index("</a>"))  # sid 3, nested in sid 1
    got = db.path_query("a//b")
    assert isinstance(got, JoinAnswer)
    assert [(r.sid, r.start) for r in got] == [(1, 3), (1, 11), (3, 0)]
    assert got is db.readpath.memo(_path_key(db, "a//b")).answer
    assert db.readpath.stats()["entries"]["memos"] == 1
    # One entry at the ``a`` level (sid 1), two at the ``b`` level (sids
    # 1 and 3; sid 2's ``b`` is under no ``a``).
    assert db.readpath.stats()["entries"]["memo_entries"] == 3
    assert db.readpath.approximate_bytes() > 0
    db.readpath.clear()
    assert db.readpath.memo(_path_key(db, "a//b")) is None
    assert db.path_query("a//b") == got


def test_path_memos_are_bounded():
    """One more distinct path than ``MEMOS_KEPT`` drops the memo stored
    longest ago; a refreshed memo counts as newly stored."""
    db = LazyXMLDatabase()
    db.insert("<a>" * 10 + "</a>" * 10)
    expressions = [
        "a" + "".join(f"{separator}a" for separator in separators)
        for steps in range(1, 9)
        for separators in product(_SEPARATORS, repeat=steps)
    ][: MEMOS_KEPT + 1]
    assert len(expressions) == MEMOS_KEPT + 1
    for expression in expressions[:-1]:
        assert db.path_query(expression)
    db.insert("<a/>", 3)  # inside the outermost a: refreshes the first path
    assert db.path_query(expressions[0])
    assert db.path_query(expressions[-1])
    assert db.readpath.stats()["entries"]["memos"] == MEMOS_KEPT
    assert db.readpath.memo(_path_key(db, expressions[1])) is None
    for expression in (expressions[0], expressions[2], expressions[-1]):
        assert db.readpath.memo(_path_key(db, expression)) is not None
        assert list(db.path_query(expression)) == semi_join_path(db, expression)


# ----------------------------------------------------------------------
# aborts publish nothing


@pytest.mark.parametrize("case", range(4))
def test_aborted_path_query_publishes_nothing(case):
    db = _budget_db()
    key = _path_key(db, "a//b")
    want = semi_join_path(db, "a//b")
    assert len(want) > 5
    assert db.path_query("a//b") == want
    db.insert("<a><b>late</b></a>")
    memo = db.readpath.memo(key)
    for _ in range(2):
        context, error = _contexts()[case]
        with pytest.raises(error):
            db.path_query("a//b", context=context)
        assert db.readpath.memo(key) is memo
    assert list(db.path_query("a//b")) == semi_join_path(db, "a//b")


def test_abort_between_levels_publishes_nothing():
    """The refresh brings the first level up to date and fails at its
    second: the memo stays the one it found."""
    db = _budget_db()
    key = _path_key(db, "a//a//b")
    assert db.path_query("a//a//b")
    db.insert("<a><a><b>late</b></a></a>")
    memo = db.readpath.memo(key)
    real = memo_module._Refresh._refresh
    levels = []

    def fail_at_second_level(self, node):
        levels.append(node)
        if len(levels) == 2:
            raise DeadlineExceeded("injected")
        return real(self, node)

    with mock.patch.object(memo_module._Refresh, "_refresh", fail_at_second_level):
        with pytest.raises(DeadlineExceeded):
            db.path_query("a//a//b")
    assert db.readpath.memo(key) is memo
    assert list(db.path_query("a//a//b")) == semi_join_path(db, "a//a//b")


# ----------------------------------------------------------------------
# one memo for a chain, whichever surface asks


def test_path_and_twig_of_one_chain_share_one_entry():
    db = LazyXMLDatabase()
    db.insert("<a><b>1</b><c><b>2</b></c></a>")
    db.insert("<b>3</b>", db.text.index("</a>"))
    path, cold = _traced(db, "a/b")
    assert cold["memo"] == "cold" and len(path) == 2
    twig, hit = _traced(db, "a/b", "twig_query")
    assert (hit["memo"], hit["refreshed"]) == ("hit", 0)
    assert twig is path
    assert db.readpath.stats()["entries"]["memos"] == 1


# ----------------------------------------------------------------------
# cost shape: the path query after an update costs what the update touched

_FORM_PATHS = ("form/f3", "form//f3")


def _path_after_tail_pair(db: LazyXMLDatabase, i: int) -> float:
    """Seconds of the first ``form/f3`` and ``form//f3`` after a tail
    insert plus the first two after the remove that takes it back."""
    receipt = db.insert(_form(1_000_000 + i))
    started = time.perf_counter()
    for expression in _FORM_PATHS:
        db.path_query(expression)
    after_insert = time.perf_counter() - started
    db.remove_segment(receipt.sid)
    started = time.perf_counter()
    for expression in _FORM_PATHS:
        db.path_query(expression)
    return after_insert + time.perf_counter() - started


@pytest.mark.perf_smoke
def test_path_after_update_does_not_follow_the_corpus():
    """Counts first (the ``twig_query`` span's ``refreshed``): after a
    tail insert each path recomputes the new form's entry at each of its
    two steps, after taking it back nothing, on 250 forms and on 4 000.
    Then time: the 4 000-form pair takes less than twice the 250-form one.
    Medians of 40 pairs taken alternately, best of three attempts: a shape
    check, not a timer."""
    dbs = [_loaded(forms)[0] for forms in (250, 4_000)]
    for db, forms in zip(dbs, (250, 4_000)):
        for expression in _FORM_PATHS:
            _, attrs = _traced(db, expression)
            # cold: every segment, at both steps
            assert (attrs["memo"], attrs["refreshed"]) == ("cold", 2 * forms)
        receipt = db.insert(_form(1_000_000))
        counts = []
        for remove in (False, True):
            if remove:
                db.remove_segment(receipt.sid)
            for expression in _FORM_PATHS:
                got, attrs = _traced(db, expression)
                counts.append(attrs["refreshed"])
                assert list(got) == semi_join_path(db, expression)
        assert counts == [2, 2, 0, 0], forms
    for _attempt in range(3):
        samples = [[], []]
        for i in range(1, 46):
            for db, held in zip(dbs, samples):
                held.append(_path_after_tail_pair(db, i))
        small, large = (statistics.median(held[5:]) for held in samples)
        if large <= 2 * small:
            return
    pytest.fail(
        f"path query after an update: 4 000 forms x{large / small:.1f} of "
        "250 (bound 2)"
    )
