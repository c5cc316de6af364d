"""The join memo is kept per descendant segment: same answers, local cost.

``LazyJoiner`` stores, per ``(A, D, axis)``, a one-level memo in the
read path's one memo table: an entry of pairs per D-segment,
sid-ascending, and after an update re-merges only the
D-segments the element index's write journal named (DESIGN.md §4e).  What
that must not change, and what it must buy:

- the default call equals the ``stats=`` from-scratch merge regrouped by
  descendant sid — same pairs, same order within a D-segment — after
  every step of a random update history, a second call is a hit, and its
  distinct descendants are the twig memo's answer to the same step;
- the join after a one-segment update merges one D-segment (insert) or none
  (whole-segment remove), on 250 forms and on 4 000 alike, and a write
  that touches no D-segment leaves the answer as it was;
- readers sharing one pinned replica may refresh the memo (and the path
  and twig memos above it, ``tests/test_path_memo.py``,
  ``tests/test_twig_memo.py``) concurrently;
- a budget aborts a warm call exactly as it aborts a cold one, and an
  aborted merge publishes nothing.
"""

from __future__ import annotations

import statistics
import threading
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import element_index, readpath
from repro.core import join as join_module
from repro.core.database import LazyXMLDatabase
from repro.core.element_index import ElementIndex
from repro.core.join import JoinStatistics
from repro.durability import recovery
from repro.errors import (
    DeadlineExceeded,
    QueryCancelled,
    ReproError,
    ResourceExhausted,
)
from repro.service.context import QueryContext
from repro.service import snapshot as snapshot_module
from repro.service.server import DatabaseService
from repro.service.snapshot import EpochManager
from repro.storage import clone, dumps, loads
from repro.twig import memo as twig_memo
from repro.twig import parse_twig
from tests.helpers import semi_join_path
from tests.test_log_maintenance import (
    FRAGMENTS,
    _OPS,
    _form,
    _loaded,
    apply_op,
    refused,
)

#: The fourth insert lands inside the ``<a/>`` token of segment 2 and the
#: remove takes that segment's two characters before its new child, so the
#: two share a gp: "the A-segment contains the D-segment" must not turn on
#: a gp comparison, or a chunk merged before the tie outlives it.  Every
#: insert is checked now, so that fourth insert is refused and the history
#: exercises the refusal; the seeded test below reaches a tie through a
#: comment instead.
_GP_TIE = [
    ("insert", 0, 0),
    ("insert", 6698, 0),
    ("insert", 6698, 0),
    ("insert", 0, 54),
    ("remove_any", 1, 384),
]

_TAGS = ("a", "b", "c")
_AXES = ("descendant", "child")

_HISTORY = st.lists(
    st.one_of(
        _OPS,
        st.tuples(
            st.sampled_from(
                ["repack", "compact", "reload", "clone", "trim", "epoch"]
            ),
            st.integers(0, 10_000),
            st.integers(0, 10_000),
        ),
    ),
    min_size=1,
    max_size=14,
)


def by_descendant_sid(pairs) -> list:
    """``pairs`` stably regrouped by descendant segment in ascending sid:
    the from-scratch merge (Fig. 9's gp order) in the memo's order."""
    return sorted(pairs, key=lambda pair: pair[1].sid)


def assert_memo_is_the_merge(db: LazyXMLDatabase) -> None:
    """Every tag pair, both axes: default call == from-scratch merge
    regrouped by descendant sid, the call after it recompiles nothing, and
    its distinct descendants are the twig memo's answer to the step."""
    db.prepare_for_query()
    for tag_a in _TAGS:
        for tag_d in _TAGS:
            for axis in _AXES:
                got = db.structural_join(tag_a, tag_d, axis)
                want = by_descendant_sid(db.structural_join(
                    tag_a, tag_d, axis, stats=JoinStatistics()
                ))
                assert got == want, (tag_a, tag_d, axis)
                misses = db.readpath.misses
                assert db.structural_join(tag_a, tag_d, axis) == want
                assert db.readpath.misses == misses, (tag_a, tag_d, axis)
                step = "//" if axis == "descendant" else "/"
                twig = db.twig_query(f"{tag_a}{step}{tag_d}", strategy="twig")
                assert {d for _, d in got} == set(twig), (tag_a, tag_d, axis)


def _epochs(db: LazyXMLDatabase, a: int, b: int, check) -> LazyXMLDatabase:
    """Three publishes of an :class:`EpochManager` seeded with ``db``, the
    published buffer ``check``-ed in every epoch; returns the writer
    buffer, caught up.  From the second publish on, the writer buffer is
    one that answered an epoch ago: its memo meets two ops' writes at once
    (the catch-up and the commit)."""
    manager = EpochManager(db)
    first = {
        "op": "insert",
        "fragment": FRAGMENTS[a % len(FRAGMENTS)],
        "position": b % (db.document_length + 1),
    }
    sids = []
    for op in (first, {"op": "insert", "fragment": FRAGMENTS[b % len(FRAGMENTS)]},
               None):
        with manager.pin() as snap:
            check(snap.db)
        if op is None:  # take the first insert back
            op = {"op": "remove_segment", "sid": sids[0]}
        # A first insert at a raw offset may be refused: a no-op, and
        # then the last one takes the second back.
        results = []
        db = manager.writer()
        if refused(db, lambda: results.append(recovery.apply_op(db, op))):
            continue
        if op["op"] == "insert":
            sids.append(results[0].sid)
        manager.publish([op])
    with manager.pin() as snap:
        check(snap.db)
    manager.close()
    return manager.writer()


def _replay(mode: str, ops, check=assert_memo_is_the_merge) -> None:
    """Run ``db.check_invariants()`` and then ``check(db)`` after every
    step of a ``_HISTORY`` (in LS the invariants see the lists ``check``'s
    prepare has not sorted yet).  Shared with ``tests/test_readpath.py``
    and ``tests/test_twig_parity.py``.

    Beyond the ``_OPS`` updates: repacks and compaction (fresh sids for
    old ones), reloads and clones (a database whose journal starts at its
    load), ``trim`` (an insert, then writes that trim the element index's
    journal past every memo's position) and ``epoch`` (:func:`_epochs`)."""
    db = LazyXMLDatabase(mode)
    for kind, a, b in ops:
        live = list(db.log.ertree.nodes())[1:]
        if kind == "repack" and live:
            db.repack(live[a % len(live)].sid)
        elif kind == "compact":
            db.compact()
        elif kind == "reload":
            db = loads(dumps(db))
        elif kind == "clone":
            db = clone(db)
        elif kind == "trim":
            with mock.patch.object(element_index, "JOURNAL_KEPT", 1):
                apply_op(db, "insert", a, b)
                db.remove_segment(db.insert("<z/>").sid)
        elif kind == "epoch":
            db.prepare_for_query()
            db = _epochs(db, a, b, check)
        else:
            apply_op(db, kind, a, b)
        db.check_invariants()
        check(db)
        snapshot = dumps(db)  # the format is the contract: a fixed point
        assert dumps(loads(snapshot)) == snapshot


@settings(max_examples=100, deadline=None)
@given(_HISTORY)
@example(_GP_TIE)
def test_ld_history_memo_equals_from_scratch_merge(ops):
    _replay("dynamic", ops)


@settings(max_examples=60, deadline=None)
@given(_HISTORY)
@example(_GP_TIE)
def test_ls_history_memo_equals_from_scratch_merge(ops):
    _replay("static", ops)


@pytest.mark.parametrize("mode", ["dynamic", "static"])
def test_gp_tie_answers_alike_warm_cold_and_from_scratch(mode):
    """Segment 3 goes into segment 2 just after its leading comment, and
    the remove takes the comment: the two share a gp, and segment 2 holds
    ``a`` elements after segment 3, none around it."""
    db = LazyXMLDatabase(mode)
    for step in (
        lambda: db.insert("<a></a>"),
        lambda: db.insert("<!--c--><a><a/></a>", 3),
        lambda: db.insert("<a/>", 3 + len("<!--c-->")),
        lambda: db.remove(3, len("<!--c-->")),
    ):
        step()
        db.prepare_for_query()
        db.structural_join("a", "a")  # a chunk per D-segment, before the tie
    assert db.text == "<a><a/><a><a/></a></a>"
    assert db.log.node(2).gp == db.log.node(3).gp
    warm = db.structural_join("a", "a")
    assert [(a.sid, d.sid) for a, d in warm] == [(1, 2), (1, 2), (2, 2), (1, 3)]
    assert warm == db.structural_join("a", "a", stats=JoinStatistics())
    db.readpath.clear()
    assert db.structural_join("a", "a") == warm


def _chunks(db: LazyXMLDatabase, key) -> dict:
    """``{D-segment sid: pairs}`` of the memo just stored under ``key``."""
    return dict(zip(*db.readpath.memo(key).levels[0]))


def test_chunk_survives_unrelated_updates_and_leaves_with_its_segment():
    db = LazyXMLDatabase()
    first = db.insert("<a><b>1</b></a>")
    nested = db.insert("<b><c>2</c></b>", db.text.index("</a>"))
    db.insert("<a><b>3</b></a>")
    db.structural_join("a", "b")
    key = readpath.join_key(
        db.log.tags.tid_of("a"), db.log.tags.tid_of("b"), "descendant"
    )
    before = _chunks(db, key)
    assert set(before) == {1, 2, 3}
    db.insert("<a><b>4</b></a>")
    db.structural_join("a", "b")
    after = _chunks(db, key)
    assert all(after[sid] is before[sid] for sid in before)  # reused, not rebuilt
    db.remove_segment(first.sid)  # takes the nested segment with it
    db.structural_join("a", "b")
    assert set(_chunks(db, key)) == {3, 4}
    assert nested.sid == 2
    assert_memo_is_the_merge(db)


# ----------------------------------------------------------------------
# cost shape: the join after an update costs what the update touched


@pytest.mark.perf_smoke
def test_join_after_update_merges_only_the_touched_segment(monkeypatch):
    """Counts, not seconds: in-segment kernel calls (one per merged
    D-segment holding both tags) and read-path misses of the first
    ``form//f3`` after a tail insert and after taking it back."""
    calls = []
    real = join_module.stack_tree_desc

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(join_module, "stack_tree_desc", counting)

    def join_cost(db) -> tuple[int, int]:
        del calls[:]
        misses = db.readpath.misses
        pairs = db.structural_join("form", "f3")
        cost = (len(calls), db.readpath.misses - misses)
        assert pairs == db.structural_join("form", "f3", stats=JoinStatistics())
        return cost

    shapes = []
    for forms in (250, 4_000):
        db, _rate = _loaded(forms)
        assert join_cost(db)[0] == forms  # cold: every D-segment is merged
        receipt = db.insert(_form(1_000_000))
        after_insert = join_cost(db)
        db.remove_segment(receipt.sid)
        shapes.append((after_insert, join_cost(db)))
    # One D-segment merged after the insert, none after the remove; the
    # misses (the memo, two segment lists, the new segment's columns) do
    # not follow the corpus either.
    (after_insert, after_remove) = shapes[0]
    assert (after_insert[0], after_remove[0]) == (1, 0)
    assert shapes[0] == shapes[1]


@pytest.mark.perf_smoke
def test_write_touching_no_d_segment_keeps_the_join_a_hit():
    """A top-level ``<form>`` with no ``f3`` writes no D-segment of
    ``form//f3`` and holds none of its chunks: the next join hands back
    the stored answer itself and misses nothing, on 250 and on 4 000
    forms, though ``form``'s segment list changed."""
    for forms in (250, 4_000):
        db, _rate = _loaded(forms)
        answer = db.structural_join("form", "f3")
        db.insert("<form><id>no f3</id><f1>v</f1></form>")
        misses = db.readpath.misses
        assert db.structural_join("form", "f3") is answer
        assert db.readpath.misses == misses
        assert answer == by_descendant_sid(
            db.structural_join("form", "f3", stats=JoinStatistics())
        )


def test_join_memos_are_bounded_like_twig_memos(monkeypatch):
    """Join and twig memos share one table and its bound, the oldest
    stored going first; a refreshed memo counts as newly stored."""
    monkeypatch.setattr(readpath, "MEMOS_KEPT", 4)
    db = LazyXMLDatabase()
    db.insert("<a><b><c/></b></a>")
    pairs = [(a, d) for a in _TAGS for d in _TAGS]
    for tag_a, tag_d in pairs:
        db.structural_join(tag_a, tag_d)
    db.path_query("a/b")
    tid = db.log.tags.tid_of
    kept = [readpath.join_key(tid(a), tid(d), "descendant") for a, d in pairs[-3:]]
    kept.append(twig_memo.memo_key(parse_twig("a/b"), db.log.tags))
    assert list(db.readpath._memos) == kept
    assert db.readpath.stats()["entries"]["memos"] == 4
    db.insert("<a><b><c/></b></a>")
    db.structural_join(*pairs[-3])  # refreshed: now the newest
    assert list(db.readpath._memos) == kept[1:] + kept[:1]


def _join_after_tail_pair(db: LazyXMLDatabase, i: int) -> float:
    """Seconds of the first ``form//f3`` after a tail insert plus the first
    after the remove that takes it back."""
    receipt = db.insert(_form(1_000_000 + i))
    started = time.perf_counter()
    db.structural_join("form", "f3")
    after_insert = time.perf_counter() - started
    db.remove_segment(receipt.sid)
    started = time.perf_counter()
    db.structural_join("form", "f3")
    return after_insert + time.perf_counter() - started


@pytest.mark.perf_smoke
def test_join_after_update_does_not_follow_the_corpus(monkeypatch):
    """The refresh finds the written D-segments in the element index's
    journal, and the tag list patches the segment lists it merges, so the
    join after a tail insert and the one after taking it back make as
    many ``ElementIndex.version`` calls (none) on 4 000 forms as on 250 —
    when the memo re-checked every chunk's version it made one call per
    D-segment — and the 4 000-form pair takes less than twice the
    250-form one.  Medians of 40 pairs taken alternately, best of three
    attempts: a shape check, not a timer."""
    calls = []
    real = ElementIndex.version

    def counting(*args):
        calls.append(1)
        return real(*args)

    dbs = [_loaded(forms)[0] for forms in (250, 4_000)]
    with monkeypatch.context() as patched:
        patched.setattr(ElementIndex, "version", counting)
        counts = []
        for db in dbs:
            db.structural_join("form", "f3")
            del calls[:]
            _join_after_tail_pair(db, 0)
            counts.append(len(calls))
    assert counts == [0, 0]
    for _attempt in range(3):
        samples = [[], []]
        for i in range(1, 46):
            for db, held in zip(dbs, samples):
                held.append(_join_after_tail_pair(db, i))
        small, large = (statistics.median(held[5:]) for held in samples)
        if large <= 2 * small:
            return
    pytest.fail(
        f"join after an update: 4 000 forms x{large / small:.1f} of 250 "
        "(bound 2)"
    )


# ----------------------------------------------------------------------
# budgets: warm and cold abort alike; an aborted merge publishes nothing


def _budget_db() -> LazyXMLDatabase:
    db = LazyXMLDatabase()
    for i in range(6):
        db.insert(f"<a><b>{i}</b><a><b>n</b></a></a>")
    db.insert("<b>in</b>", db.text.index("</a>"))  # a cross-segment pair
    return db


class _ExpiredClock:
    now = 0.0

    def __call__(self):
        return self.now


def _contexts():
    clock = _ExpiredClock()
    expired = QueryContext(timeout=1.0, clock=clock, check_every=1)
    clock.now = 2.0
    cancelled = QueryContext()
    cancelled.cancel("caller went away")
    return [
        (QueryContext(max_result_rows=5), ResourceExhausted),
        (QueryContext(max_result_rows=0), ResourceExhausted),
        (expired, DeadlineExceeded),
        (cancelled, QueryCancelled),
    ]


@pytest.mark.parametrize("case", range(4))
@pytest.mark.parametrize("warm_first", [False, True])
def test_budget_aborts_warm_and_cold_alike(case, warm_first):
    db = _budget_db()
    full = by_descendant_sid(db.structural_join("a", "b", stats=JoinStatistics()))
    assert len(full) > 5
    if warm_first:
        assert db.structural_join("a", "b") == full
    key = readpath.join_key(
        db.log.tags.tid_of("a"), db.log.tags.tid_of("b"), "descendant"
    )
    memo = db.readpath.memo(key)
    assert (memo is not None and len(memo.levels[0][0]) == 7) == warm_first
    for _ in range(2):  # cold-then-cold again, or warm-then-warm
        context, error = _contexts()[case]
        with pytest.raises(error) as raised:
            db.structural_join("a", "b", context=context)
        assert type(raised.value) is error
        # An aborted query leaves the memo as it found it.
        assert db.readpath.memo(key) is memo
    assert db.structural_join("a", "b") == full
    # ... and after an update, with one chunk to re-merge.
    db.insert("<a><b>late</b></a>")
    memo = db.readpath.memo(key)
    context, error = _contexts()[case]
    with pytest.raises(error):
        db.structural_join("a", "b", context=context)
    assert db.readpath.memo(key) is memo
    assert db.structural_join("a", "b") == by_descendant_sid(
        db.structural_join("a", "b", stats=JoinStatistics())
    )


def test_generous_budget_is_charged_the_whole_answer_warm_and_cold():
    db = _budget_db()
    charged = []
    for _ in range(2):
        context = QueryContext(timeout=60.0, max_result_rows=10**6)
        pairs = db.structural_join("a", "b", context=context)
        charged.append((context.rows, len(pairs)))
    assert charged[0] == charged[1] == (len(pairs), len(pairs))


# ----------------------------------------------------------------------
# readers of one pinned replica refresh the memo concurrently


def test_readers_sharing_a_pinned_snapshot_while_the_writer_publishes(
    monkeypatch,
):
    monkeypatch.setattr(snapshot_module, "DRAIN_TIMEOUT", 0.05)
    db = LazyXMLDatabase()
    db.apply_batch([{"op": "insert", "fragment": _form(i)} for i in range(40)])
    service = DatabaseService(db)
    errors: list = []
    stop = threading.Event()

    def writer():
        i = 0
        try:
            while not stop.is_set():
                receipt = service.insert(_form(10_000 + i))
                if i % 2:
                    service.remove_segment(receipt.sid)
                i += 1
        except ReproError as exc:  # pragma: no cover - reported below
            errors.append(exc)

    def reader(snap, barrier, out):
        try:
            barrier.wait()
            out.append([
                (snap.db.structural_join("form", "f3"),
                 snap.db.path_query("form/f3"),
                 snap.db.twig_query("form[f1]/f3", strategy="twig"))
                for _ in range(3)
            ])
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    writing = threading.Thread(target=writer)
    writing.start()
    try:
        for _ in range(12):
            with service.snapshot() as snap:
                barrier = threading.Barrier(8)
                answers: list = []
                readers = [
                    threading.Thread(target=reader, args=(snap, barrier, answers))
                    for _ in range(8)
                ]
                for thread in readers:
                    thread.start()
                for thread in readers:
                    thread.join()
                assert not errors, errors
                want = (
                    snap.db.structural_join("form", "f3", stats=JoinStatistics()),
                    semi_join_path(snap.db, "form/f3"),
                    list(snap.db.twig_query("form[f1]/f3", strategy="pairwise")),
                )
                assert len(answers) == 8
                assert all(
                    pairs == want[0] and list(matches) == want[1]
                    and list(twig) == want[2]
                    for trio in answers for pairs, matches, twig in trio
                )
                # Dead sids left with the publish: one memo entry per
                # pattern node and live segment — one level for the join,
                # two for the path, three for the twig — however many
                # epochs this replica replayed.
                entries = snap.db.readpath.stats()["entries"]
                assert entries["memos"] == 3
                assert entries["memo_entries"] == 6 * snap.db.segment_count
    finally:
        stop.set()
        writing.join()
        service.close()
    assert not errors, errors
