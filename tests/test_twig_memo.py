"""The twig memo keeps a pattern's survivors per node and segment: same
answers, local cost.

Per parsed twig pattern the read path stores, for each pattern node and
each segment, the elements that survive there, and after an update
recomputes the written segments and re-checks, by Proposition 3, only what
they can have changed (DESIGN.md §4e).  What that must not change, and
what it must buy:

- after every step of the join memo's random update histories (LD and LS)
  each pattern answers what the pairwise executor answers, records and
  chains alike, what the brute-force tree matcher answers wherever the
  text parses, and an immediate repeat recomputes no entry;
- four broken refresh rules each fail those histories;
- an aborted query publishes nothing;
- after a tail insert and its remove a twig recomputes as many entries and
  looks at as many spine elements on 4 000 forms as on 250, and the pair
  takes less than twice as long on the larger corpus.
"""

from __future__ import annotations

import statistics
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings

from repro.core.database import LazyXMLDatabase
from repro.errors import DeadlineExceeded, PathSyntaxError
from repro.obs.trace import Trace
from repro.service.context import QueryContext
from repro.twig import memo as memo_module
from repro.twig import parse_twig
from repro.twig.evaluate import evaluate_twig
from tests.test_join_chunks import (
    _GP_TIE,
    _HISTORY,
    _budget_db,
    _contexts,
    _replay,
)
from tests.test_log_maintenance import _form
from tests.test_twig_oracle import reference_twig
from tests.test_twig_parity import mirror_reference, record_key

#: Twigs over ``tests/test_log_maintenance.FRAGMENTS`` (tags a, b, c; texts
#: x, y, z, w, v).
_PATTERNS = [
    "a/b",  # plain chains
    "a/c",
    "a//b",
    "a//b/c",  # a three-step chain over both axes
    "b",  # a zero-step chain: every element of the tag
    "a[b]",  # a branch
    "c[a]/b",  # a branch, then the child axis
    "b[b/a]",  # a branch chain
    "c[b/c]//a",  # a branch chain over a descendant step
    "b[b[a]]//a",  # nested branches
    "a/*",  # a wildcard
    "*[c]//a",  # a wildcard entry step
    "b/b[1]",  # [n] on the trunk
    "c[b[1]]",  # [n] on a branch
    "c/*[2]",  # [n] on a wildcard
    'a[b="x"]',  # a value predicate on a branch
    'c/a[.="z"]',  # a value predicate on the trunk
    "a[nosuch]//b",  # an absent tag: pruned, no memo
]

#: Histories each broken refresh rule fails, one per rule:
#: a ``<b>`` lands inside the ``<a>`` of an older segment, so ``a[b]``
#: gains that ``a`` (only its spine says so) ...
_ANCESTOR_KILLER = [("insert", 2, 0), ("insert", 1, 6)]
#: ... a ``<b><c/></b>`` lands in a ``<c>`` beside an untouched segment, so
#: that segment's ``a``s match ``c[b/c]//a`` (only downward propagation from
#: the ``c`` that changed says so) ...
_DOWNWARD_KILLER = [("insert", 2, 0), ("insert", 4, 15), ("insert", 1, 15)]
#: ... a ``<b>`` lands before the first ``<b>`` child of a ``<b>``, so the
#: child in the older segment is not ``b/b[1]`` any more (it is no spine
#: element: it is the spine element's child) ...
_POSITIONAL_KILLER = [("insert", 4, 0), ("insert", 1, 3)]
#: ... and a write trims the journal past every memo after an insert.
_TRIM_KILLER = [("insert", 0, 0), ("insert", 2, 3), ("trim", 0, 0)]
#: Histories that once reached two start tags tied at one local start —
#: a batch inserting inside a start tag, then a repack, which left one
#: segment holding ``a(1,8,L3)`` inside ``c(1,17,L2)`` — and so three
#: containments, one per executor.  Every insert is checked now, so the
#: tie is never reached: the inserts inside a start tag are refused.
_TIED_STARTS = [("insert", 0, 0), ("batch", 177, 1), ("repack", 0, 0)]
_TIED_AFTER_EPOCHS = [
    ("trim", 154, 0), ("trim", 208, 0), ("batch", 41, 244), ("repack", 0, 0),
    ("epoch", 0, 203), ("epoch", 0, 203), ("epoch", 0, 4888), ("insert", 1, 2549),
]
_TIED_AFTER_REMOVE = [
    ("insert", 0, 0), ("insert", 0, 1), ("remove_any", 0, 0), ("repack", 0, 0),
]
_TIED_AFTER_BATCHES = [
    ("insert", 0, 0), ("batch", 169, 30), ("batch", 370, 4096), ("repack", 0, 0),
    ("remove_any", 0, 0), ("insert", 0, 1245),
]


def _traced(db: LazyXMLDatabase, expression: str, strategy: str = "twig"):
    """The answer and the ``twig_query`` span's attributes."""
    context = QueryContext(trace=Trace())
    answer = evaluate_twig(db, expression, strategy=strategy, context=context)
    (span,) = [s for s in context.trace.spans if s.name == "twig_query"]
    return answer, span.attrs


def _keys(records) -> list:
    return [record_key(record) for record in records]


def assert_memo_answers(db: LazyXMLDatabase) -> None:
    """Every pattern == the pairwise executor, records and chains alike,
    == the tree matcher wherever the text parses, and its repeat is a
    hit."""
    db.prepare_for_query()
    ref = mirror_reference(db)
    for expression in _PATTERNS:
        got, attrs = _traced(db, expression)
        want = evaluate_twig(db, expression, strategy="pairwise")
        assert _keys(got) == _keys(want), expression
        chains = evaluate_twig(db, expression, strategy="twig", bindings=True)
        assert chains == evaluate_twig(
            db, expression, strategy="pairwise", bindings=True
        ), expression
        if ref is not None:
            spans = sorted(db.global_span(record) for record in got)
            assert spans == reference_twig(ref, expression), expression
        again, repeat = _traced(db, expression)
        if "memo" in attrs:
            assert repeat["memo"] == "hit" and repeat["refreshed"] == 0
            assert again is got, expression


@settings(max_examples=100, deadline=None)
@given(_HISTORY)
@example(_GP_TIE)
@example(_ANCESTOR_KILLER)
@example(_DOWNWARD_KILLER)
@example(_POSITIONAL_KILLER)
@example(_TRIM_KILLER)
@example(_TIED_STARTS)
@example(_TIED_AFTER_EPOCHS)
@example(_TIED_AFTER_REMOVE)
@example(_TIED_AFTER_BATCHES)
def test_ld_history_twig_memo_equals_oracle_and_pairwise(ops):
    _replay("dynamic", ops, assert_memo_answers)


@settings(max_examples=50, deadline=None)
@given(_HISTORY)
@example(_GP_TIE)
@example(_ANCESTOR_KILLER)
@example(_DOWNWARD_KILLER)
@example(_POSITIONAL_KILLER)
@example(_TRIM_KILLER)
@example(_TIED_STARTS)
@example(_TIED_AFTER_EPOCHS)
@example(_TIED_AFTER_REMOVE)
@example(_TIED_AFTER_BATCHES)
def test_ls_history_twig_memo_equals_oracle_and_pairwise(ops):
    _replay("static", ops, assert_memo_answers)


def test_a_witness_beside_an_untouched_segment_makes_it_match():
    """The counterexample to "written sids plus their ER-ancestors": the
    written segment's ancestor ``person`` gains a witness, so the
    ``interest`` of an untouched sibling segment matches."""
    db = LazyXMLDatabase()
    db.insert(
        "<people><person><name/></person>"
        "<person><watches><watch/></watches></person></people>"
    )
    inside = db.text.index("</person>")
    db.insert("<interest/>", inside)  # the untouched sibling to come
    expression = "people/person[watches/watch]//interest"
    assert _traced(db, expression)[0] == []
    db.insert("<watches><watch/></watches>", inside)
    got, attrs = _traced(db, expression)
    assert attrs["memo"] == "refresh"
    assert len(got) == 1
    assert _keys(got) == _keys(evaluate_twig(db, expression, strategy="pairwise"))


def test_memo_goes_cold_then_refreshes_then_hits():
    db = LazyXMLDatabase()
    db.insert("<r><a><b/></a><a>t</a></r>")
    expression = "r/a[b]"
    first, cold = _traced(db, expression)
    assert cold["memo"] == "cold" and len(first) == 1
    db.insert("<b/>", db.text.index("t</a>"))  # the second <a> gains a <b>
    second, refresh = _traced(db, expression)
    assert refresh["memo"] == "refresh" and len(second) == 2
    # The new segment is recomputed at the one level whose tag it holds;
    # the spine is the older segment's <r> and second <a>.
    assert (refresh["refreshed"], refresh["spine"]) == (1, 2)
    third, hit = _traced(db, expression)
    assert (hit["memo"], hit["refreshed"], hit["spine"]) == ("hit", 0, 0)
    assert third is second
    assert _keys(third) == _keys(evaluate_twig(db, expression, strategy="pairwise"))
    entries = db.readpath.stats()["entries"]
    assert entries["memos"] == 1
    assert entries["memo_entries"] >= 2
    assert db.readpath.approximate_bytes() > 0
    db.readpath.clear()
    assert _traced(db, expression)[1]["memo"] == "cold"


# ----------------------------------------------------------------------
# the parsed pattern is shared


def test_parse_twig_is_memoised_per_string():
    assert parse_twig("a[b]//c") is parse_twig("a[b]//c")
    for _ in range(2):
        with pytest.raises(PathSyntaxError):
            parse_twig("a[b//")


def test_evaluation_leaves_the_shared_query_alone():
    db = LazyXMLDatabase()
    db.insert('<a><b>x</b><c/><c/></a>')
    query = parse_twig('a[b="x"]/c[2]')

    def shape():
        return [
            (n.tag, n.axis, n.position, n.value, n.branches, n.child, n.index)
            for n in query.nodes
        ]

    before = shape()
    for strategy in ("auto", "twig", "pairwise"):
        for bindings in (False, True):
            evaluate_twig(db, query, strategy=strategy, bindings=bindings)
    assert shape() == before
    assert parse_twig('a[b="x"]/c[2]') is query


# ----------------------------------------------------------------------
# aborts publish nothing

_ABORTED = "a[a]//b"


@pytest.mark.parametrize("case", range(4))
def test_aborted_twig_query_publishes_nothing(case):
    db = _budget_db()
    key = memo_module.memo_key(parse_twig(_ABORTED), db.log.tags)
    assert len(db.twig_query(_ABORTED, strategy="twig")) > 5
    db.insert("<a><a><b>late</b></a></a>")
    memo = db.readpath.memo(key)
    want = _keys(evaluate_twig(db, _ABORTED, strategy="pairwise"))
    for _ in range(2):
        context, error = _contexts()[case]
        with pytest.raises(error):
            db.twig_query(_ABORTED, strategy="twig", context=context)
        assert db.readpath.memo(key) is memo
    assert _keys(db.twig_query(_ABORTED, strategy="twig")) == want


def test_abort_between_levels_publishes_nothing():
    db = _budget_db()
    key = memo_module.memo_key(parse_twig(_ABORTED), db.log.tags)
    assert db.twig_query(_ABORTED, strategy="twig")
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
            db.twig_query(_ABORTED, strategy="twig")
    assert db.readpath.memo(key) is memo
    assert _keys(db.twig_query(_ABORTED, strategy="twig")) == _keys(
        evaluate_twig(db, _ABORTED, strategy="pairwise")
    )


# ----------------------------------------------------------------------
# cost shape: a twig after an update costs what the update touched

_GATE = ("forms/form[f1]//f3", "form[id]/f2")


def _forms(count: int) -> LazyXMLDatabase:
    """One ``<forms>`` segment holding ``count`` forms."""
    db = LazyXMLDatabase()
    db.insert("<forms>" + "".join(map(_form, range(count))) + "</forms>")
    return db


def _tail(db: LazyXMLDatabase) -> int:
    return db.document_length - len("</forms>")


def _twig_after_tail_pair(db: LazyXMLDatabase, i: int) -> float:
    """Seconds of the gate's twigs after a form goes in just before
    ``</forms>`` plus after the remove that takes it back."""
    receipt = db.insert(_form(1_000_000 + i), _tail(db))
    started = time.perf_counter()
    for expression in _GATE:
        db.twig_query(expression, strategy="twig")
    after_insert = time.perf_counter() - started
    db.remove_segment(receipt.sid)
    started = time.perf_counter()
    for expression in _GATE:
        db.twig_query(expression, strategy="twig")
    return after_insert + time.perf_counter() - started


@pytest.mark.perf_smoke
def test_twig_after_update_does_not_follow_the_corpus():
    """Counts first: after an insert just before ``</forms>`` and after its
    remove, each twig recomputes at most ER depth + 1 entries per pattern
    node and looks at one spine element (the ``<forms>`` element), the same
    on 250 forms and on 4 000.  Then time: the 4 000-form pair takes less
    than twice the 250-form one.  Medians of 40 pairs taken alternately,
    best of three attempts: a shape check, not a timer."""
    dbs = [_forms(count) for count in (250, 4_000)]
    shapes = []
    for db in dbs:
        for expression in _GATE:
            assert _traced(db, expression)[1]["memo"] == "cold"
        receipt = db.insert(_form(1_000_000), _tail(db))
        depth = db.log.node(receipt.sid).depth
        traced = []
        for remove in (False, True):
            if remove:
                db.remove_segment(receipt.sid)
            for expression in _GATE:
                got, attrs = _traced(db, expression)
                assert _keys(got) == _keys(
                    evaluate_twig(db, expression, strategy="pairwise")
                )
                assert attrs["memo"] == "refresh"
                nodes = len(parse_twig(expression).nodes)
                assert attrs["refreshed"] <= (depth + 1) * nodes, expression
                assert attrs["spine"] == 1, expression
                traced.append((attrs["refreshed"], attrs["spine"]))
        shapes.append(traced)
    assert shapes[0] == shapes[1]
    for _attempt in range(3):
        samples = [[], []]
        for i in range(1, 46):
            for db, held in zip(dbs, samples):
                held.append(_twig_after_tail_pair(db, i))
        small, large = (statistics.median(held[5:]) for held in samples)
        if large <= 2 * small:
            return
    pytest.fail(
        f"twig after an update: 4 000 forms x{large / small:.1f} of 250 "
        "(bound 2)"
    )
