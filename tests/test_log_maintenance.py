"""Update-log maintenance finds its place by bisecting: same lists, same gps.

The tag-list and the ER-tree locate every per-update position with a bisect
on live ``gp`` values (no key list rebuilt, no scan by sid), and the global
position pass starts at the update point.  What that must not change:

- each tag's list is, after every update, the segments holding that tag in
  ER-tree pre-order with the element index's counts;
- every survivor's ``gp``/``length``/parent is what the character-ownership
  model of ``tests/test_ertree.py`` says;
- ``check_invariants()`` holds.

The hypothesis histories drive inserts at any offset, whole / partial /
nested-subtree removes, batches and a forced insert rollback through the
database in LD and LS mode, and arbitrary (boundary-crossing) spans through
the bare :class:`UpdateLog`, where the validator does not stand in the way
of Fig. 7's clipping cases.  The seeded tests pin the gp ties a bisect has
to step over.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import LazyXMLDatabase
from repro.core.update_log import UpdateLog
from repro.errors import InvalidSegmentError, ReproError
from tests.helpers import tag_counts
from tests.test_ertree import CharModel, assert_tree_matches_model

FRAGMENTS = (
    "<a><b>x</b></a>",
    "<b>y<c/></b>",
    "<c><a>z</a><b/>w</c>",
    "<a/>",
    "<b><b><a>v</a></b></b>",
)

_OPS = st.tuples(
    st.sampled_from(
        ["insert", "insert", "insert", "remove_segment", "remove_element",
         "remove_any", "batch", "rollback", "prepare"]
    ),
    st.integers(0, 10_000),
    st.integers(0, 10_000),
)


def assert_lists_match_index(db: LazyXMLDatabase) -> None:
    """Each tag's list == the one rebuilt from the element index, pre-order."""
    taglist = db.log.taglist
    preorder = list(db.log.ertree.nodes())[1:]
    for tid in range(len(db.log.tags)):
        rebuilt = [
            (node.sid, count)
            for node in preorder
            if (count := list(db.index.block(node.sid).tids).count(tid))
        ]
        counts = taglist.counts(tid)
        held = [(node.sid, counts[node.sid]) for node in taglist.nodes(tid)]
        if tid in taglist._unsorted:  # LS, not finalized: any order
            held.sort()
            rebuilt.sort()
        assert held == rebuilt, (db.log.tags.name_of(tid), held, rebuilt)
        assert taglist.total_count(tid) == sum(count for _, count in rebuilt)


def _check(db: LazyXMLDatabase, model: CharModel) -> None:
    assert_lists_match_index(db)
    assert_tree_matches_model(db.log.ertree, model)
    db.check_invariants()


def _remove(db, position, length) -> list:
    try:
        db.remove(position, length)
    except ReproError:
        return []  # refused before the first mutation: the checks still run
    return [("remove", position, length)]


def refused(db: LazyXMLDatabase, call) -> bool:
    """Run ``call()``; whether it was refused, in which case the text and
    the element count must not have moved."""
    text, elements = db.text, db.element_count
    try:
        call()
    except InvalidSegmentError:
        assert (db.text, db.element_count) == (text, elements)
        return True
    return False


def apply_op(db: LazyXMLDatabase, kind: str, a: int, b: int) -> list:
    """Run one op of the ``_OPS`` alphabet; what it did to the text, as
    ``("insert", gp, length, sid or None)`` / ``("remove", gp, length)``.
    An insert at a raw offset is refused where the fragment would not
    splice in cleanly, and then does nothing.  Shared with
    ``tests/test_join_chunks.py``."""
    fragment = FRAGMENTS[a % len(FRAGMENTS)]
    position = b % (db.document_length + 1)
    live = list(db.log.ertree.nodes())[1:]
    if kind == "insert":
        receipts = []
        if refused(db, lambda: receipts.append(db.insert(fragment, position))):
            return []
        return [("insert", position, len(fragment), receipts[0].sid)]
    if kind == "rollback":
        if refused(db, lambda: db.check_insert(fragment, position)):
            return []
        # The index takes half the records, then fails: the rollback
        # finds the fresh segment's entries through the removal report.
        real = db.index.insert_segment

        def half_then_fail(sid, tids, starts, ends, levels, base_level=0,
                           counts=None):
            # Half the rows: the insert's counts are the whole segment's.
            half = len(tids) // 2
            real(sid, tids[:half], starts[:half], ends[:half], levels[:half],
                 base_level)
            raise RuntimeError("injected index failure")

        db.index.insert_segment = half_then_fail
        try:
            with pytest.raises(RuntimeError, match="injected"):
                db.insert(fragment, position)
        finally:
            del db.index.insert_segment
        return [  # the sid is burned
            ("insert", position, len(fragment), None),
            ("remove", position, len(fragment)),
        ]
    if kind == "remove_segment" and live:
        # Whole segment, with whatever is nested inside it.
        node = live[a % len(live)]
        return _remove(db, node.gp, node.length)
    if kind == "remove_element" and live:
        # Part of one segment: an element's span (it may swallow whole
        # child segments, or be refused for crossing one's boundary).
        node = live[a % len(live)]
        records = list(db.index.block(node.sid).rows())
        if records:
            _tid, start, end, _level = records[b % len(records)]
            lo = node.to_global(start)
            hi = node.to_global(end, count_ties=False)
            return _remove(db, lo, hi - lo)
    if kind == "remove_any" and db.document_length:
        position = b % db.document_length
        return _remove(db, position, 1 + a % 9)
    if kind == "batch":
        length = 1 + a % 6
        batch = [
            {"op": "insert", "fragment": fragment, "position": position},
            {"op": "insert", "fragment": FRAGMENTS[b % len(FRAGMENTS)]},
            {"op": "remove", "position": position, "length": length},
        ]
        return [
            ("insert", result.gp, result.length, None)
            if sub["op"] == "insert"
            else ("remove", sub["position"], sub["length"])
            for sub, result in zip(batch, db.apply_batch(batch))
            if result is not None
        ]
    if kind == "prepare":
        db.prepare_for_query()  # LS: sorts the lists; later ops bisect
    return []


def _replay(mode: str, ops) -> None:
    db = LazyXMLDatabase(mode)
    model = CharModel()
    for kind, a, b in ops:
        for event in apply_op(db, kind, a, b):
            if event[0] == "insert":
                sid = model.insert(event[1], event[2])
                assert event[3] is None or event[3] == sid
            else:
                model.remove(event[1], event[2])
        _check(db, model)
    db.prepare_for_query()
    _check(db, model)


@settings(max_examples=120, deadline=None)
@given(st.lists(_OPS, min_size=1, max_size=14))
def test_ld_history_keeps_lists_and_positions(ops):
    _replay("dynamic", ops)


@settings(max_examples=80, deadline=None)
@given(st.lists(_OPS, min_size=1, max_size=14))
def test_ls_history_keeps_lists_and_positions(ops):
    _replay("static", ops)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 10_000), st.integers(0, 10_000)),
        min_size=1,
        max_size=30,
    )
)
def test_log_level_history_with_crossing_spans(raw_ops):
    """Bare update log, spans that cut through segment boundaries: the
    survivors straddling the hole and the deleted segments' entries all sit
    at the hole's start until the counts are applied."""
    log = UpdateLog()
    model = CharModel()
    held: dict[int, Counter] = {}  # sid -> tid -> count, as the index would
    for kind, a, b in raw_ops:
        total = log.document_length
        if kind == 2 and total > 2:
            gp = a % (total - 1)
            length = 1 + b % min(total - gp, 9)
            report = log.remove_span(gp, length)
            model.remove(gp, length)
            log.apply_removal_counts(
                {sid: held.pop(sid) for sid in report.removed_sids}, report
            )
        else:
            gp = a % (total + 1)
            names = {("x", "y", "z")[(b + i) % 3]: 1 + i for i in range(1 + b % 3)}
            receipt = log.insert_segment(gp, 2 + b % 7, tag_counts(log, **names))
            assert receipt.sid == model.insert(gp, receipt.length)
            held[receipt.sid] = Counter(
                {log.tags.tid_of(name): n for name, n in names.items()}
            )
        preorder = list(log.ertree.nodes())[1:]
        for tid in range(len(log.tags)):
            rebuilt = [
                (node.sid, held[node.sid][tid])
                for node in preorder
                if held[node.sid][tid]
            ]
            nodes = log.taglist.nodes(tid)
            counts = log.taglist.counts(tid)
            assert [(node.sid, counts[node.sid]) for node in nodes] == rebuilt
            gps = [node.gp for node in nodes]
            assert gps == sorted(gps)
        assert_tree_matches_model(log.ertree, model)
        log.check_invariants()


# ----------------------------------------------------------------------
# seeded tie cases


def _sids(log: UpdateLog, name: str) -> list[int]:
    return [node.sid for node in log.taglist.nodes(log.tags.tid_of(name))]


def test_head_cut_back_to_first_child_start():
    """A segment and its first child share a gp: the bisect lands on the
    parent's entry and has to step to the child's, and back."""
    log = UpdateLog()
    outer = log.insert_segment(0, 20, tag_counts(log, t=2))
    inner = log.insert_segment(4, 6, tag_counts(log, t=1))
    after = log.insert_segment(26, 5, tag_counts(log, t=1))
    report = log.remove_span(0, 4)  # outer's head, up to inner's start
    assert report.removed_sids == []
    assert log.node(outer.sid).gp == log.node(inner.sid).gp == 0
    assert _sids(log, "t") == [outer.sid, inner.sid, after.sid]
    tid = log.tags.tid_of("t")
    log.taglist.remove_occurrences(log.node(inner.sid), {tid: 1})
    assert _sids(log, "t") == [outer.sid, after.sid]
    log.taglist.add_segment(log.node(inner.sid), {tid: 1})  # as repack re-adds
    assert _sids(log, "t") == [outer.sid, inner.sid, after.sid]
    log.taglist.remove_occurrences(log.node(outer.sid), {tid: 2})
    assert _sids(log, "t") == [inner.sid, after.sid]
    log.check_invariants()


def test_removed_segment_ties_with_its_next_sibling():
    """After the shift the next sibling starts where the removed segment
    did; the removed node's entry is still the one that gets dropped —
    also when a nested removed segment started deeper inside the hole."""
    db = LazyXMLDatabase()
    first = db.insert("<a><b>1</b></a>")
    nested = db.insert("<b><c>2</c></b>", db.text.index("</a>"))
    second = db.insert("<a><b>3</b><c/></a>")
    third = db.insert("<a><c>4</c></a>")
    gone = db.log.node(first.sid), db.log.node(nested.sid)
    outcome = db.remove_segment(first.sid)
    assert outcome.report.removed == list(gone)
    assert gone[0].gp == gone[1].gp == db.log.node(second.sid).gp == 0
    for name, want in (("a", [second.sid, third.sid]), ("b", [second.sid]),
                       ("c", [second.sid, third.sid])):
        assert _sids(db.log, name) == want
    assert_lists_match_index(db)
    db.check_invariants()


def test_children_sharing_one_lp():
    """Several segments inserted at one point of their parent share an lp;
    local positions, removal and the lists go by gp, which they do not
    share."""
    db = LazyXMLDatabase()
    db.insert("<a><b>12</b></a>")
    at = db.text.index("2")
    kids = [db.insert(f"<c>{i}</c>", at) for i in range(4)]  # each before the last
    nodes = [db.log.node(k.sid) for k in kids]
    assert len({node.lp for node in nodes}) == 1
    order = sorted(nodes, key=lambda node: node.gp)
    assert order == nodes[::-1]
    parent = nodes[0].parent
    for node in order:
        assert parent.to_local(node.gp) == node.lp
        assert parent.to_local(node.end) == node.lp
    db.remove_segment(order[1].sid)
    db.remove_segment(order[3].sid)
    assert _sids(db.log, "c") == [order[0].sid, order[2].sid]
    assert db.text == "<a><b>1<c>3</c><c>1</c>2</b></a>"
    late = db.insert("<c>9</c>", db.text.index("<c>1"))
    assert _sids(db.log, "c") == [order[0].sid, late.sid, order[2].sid]
    assert_lists_match_index(db)
    db.check_invariants()


# ----------------------------------------------------------------------
# scaling: an update costs what the segment costs, not what the siblings do


def _form(i: int) -> str:
    fields = "".join(f"<f{j}>v{i}</f{j}>" for j in range(16))
    return f"<form><id>{i}</id>{fields}</form>"


def _loaded(forms: int) -> tuple[LazyXMLDatabase, float]:
    """A database of ``forms`` top-level forms; ingest elements per second."""
    db = LazyXMLDatabase()
    batch = [{"op": "insert", "fragment": _form(i)} for i in range(forms)]
    started = time.perf_counter()
    db.apply_batch(batch)
    return db, db.element_count / (time.perf_counter() - started)


def _tail_pair(db: LazyXMLDatabase, i: int) -> tuple[float, float]:
    """Seconds for one insert at the tail and the remove that takes it back."""
    fragment = _form(1_000_000 + i)
    started = time.perf_counter()
    receipt = db.insert(fragment)
    inserted = time.perf_counter()
    db.remove(receipt.gp, receipt.length)
    return inserted - started, time.perf_counter() - inserted


class _CountedRows:
    """A parent-row column that counts the rows read from it."""

    def __init__(self, rows, reads: list):
        self._rows, self._reads = rows, reads

    def __getitem__(self, row):
        self._reads.append(row)
        return self._rows[row]


@pytest.mark.perf_smoke
def test_insert_work_follows_the_fragment(monkeypatch):
    """A bare insert costs its fragment plus a few probes of its parent:
    one element inserted at the tail of the last form (a trusted parent
    with no tombstones) compiles no ER-node's coordinate state, makes one
    tag-list call, and reads at most nesting depth + 1 parent rows in
    ``_depth_at`` — the same counts on 250 and on 4 000 forms."""
    from repro.core.ertree import ERNode
    from repro.core.readpath import ReadPathCache
    from repro.core.taglist import TagList

    calls: list[str] = []
    reads: list[int] = []

    def tally(cls, name: str, label: str) -> None:
        real = getattr(cls, name)

        def counted(self, *args):
            calls.append(label)
            return real(self, *args)

        monkeypatch.setattr(cls, name, counted)

    tally(ERNode, "_build_events", "compile")
    tally(TagList, "add_segment", "tag-list")
    tally(TagList, "remove_occurrences", "tag-list")
    parent_rows = ReadPathCache.parent_rows
    monkeypatch.setattr(
        ReadPathCache, "parent_rows",
        lambda self, sid: _CountedRows(parent_rows(self, sid), reads),
    )
    fragment = "<f16>tail</f16>"
    for forms in (250, 4_000):
        db, _ = _loaded(forms)
        parent = db.log.ertree.root.children[-1]
        position = parent.end - len("</form>")
        db.remove_segment(db.insert(fragment, position).sid)  # warm
        assert parent.sid in db._trusted and not parent.tombstones()
        calls.clear()
        reads.clear()
        receipt = db.insert(fragment, position)
        depth = db.index.block(receipt.sid).levels[0] - 1
        assert (calls, depth) == (["tag-list"], 1), forms
        assert 0 < len(reads) <= depth + 1, (forms, reads)
        db.check_invariants()


@pytest.mark.perf_smoke
def test_remove_work_follows_the_segment(monkeypatch):
    """A bare remove by sid costs its segment: taking back one element
    inserted at the tail of the last form (a trusted document) unlinks
    its ER-node with no coordinate mapping — 0 ``ERNode.to_local`` calls,
    no ER-node compiled, no ``check_removal`` — makes one tag-list call,
    and writes the same ER-nodes on 250 and on 4 000 forms: the form and
    the dummy root shrink, and no sibling moves."""
    from repro.core.ertree import ERNode, ERTree
    from repro.core.taglist import TagList

    calls: list[str] = []
    written: list[int] = []

    def tally(cls, name: str, label: str) -> None:
        real = getattr(cls, name)

        def counted(self, *args):
            calls.append(label)
            return real(self, *args)

        monkeypatch.setattr(cls, name, counted)

    tally(ERNode, "_build_events", "compile")
    tally(ERNode, "to_local", "to_local")
    tally(LazyXMLDatabase, "check_removal", "check_removal")
    tally(TagList, "add_segment", "tag-list")
    tally(TagList, "remove_occurrences", "tag-list")
    touch, shift = ERNode._touch, ERTree._shift_subtrees

    def touched(node):
        written.append(node.sid)
        touch(node)

    def shifted(pending, delta):
        shift(pending, delta)
        written.extend(node.sid for node in pending)

    monkeypatch.setattr(ERNode, "_touch", touched)
    monkeypatch.setattr(ERTree, "_shift_subtrees", staticmethod(shifted))
    fragment = "<f16>tail</f16>"
    for forms in (250, 4_000):
        db, _ = _loaded(forms)
        parent = db.log.ertree.root.children[-1]
        position = parent.end - len("</form>")
        db.remove_segment(db.insert(fragment, position).sid)  # warm
        sid = db.insert(fragment, position).sid
        assert parent.sid in db._trusted
        calls.clear()
        written.clear()
        db.remove_segment(sid)
        assert calls == ["tag-list"], forms
        assert written == [parent.sid, 0], forms
        assert sid not in db.log.ertree and parent.sid in db._trusted
        db.check_invariants()


def _scaling_ratios() -> tuple[float, float, float]:
    """Large over small: insert median, remove median, seconds per element
    ingested — the same 100 tail pairs on 250 and on 4 000 top-level forms,
    taken alternately so a noisy moment lands on both."""
    small, small_rate = _loaded(250)
    large, large_rate = _loaded(4_000)
    samples = {id(small): [], id(large): []}
    for i in range(110):
        for db in (small, large):
            samples[id(db)].append(_tail_pair(db, i))
    small.check_invariants()
    large.check_invariants()
    medians = [
        [statistics.median(column) for column in zip(*samples[id(db)][10:])]
        for db in (small, large)
    ]
    (small_insert, small_remove), (large_insert, large_remove) = medians
    return (
        large_insert / small_insert,
        large_remove / small_remove,
        small_rate / large_rate,
    )


@pytest.mark.perf_smoke
def test_update_cost_does_not_follow_the_sibling_count():
    """Before PR 16 the per-op medians grew 15–30x from 250 to 4 000 forms
    (key lists rebuilt and lists scanned per tag of every update) and bulk
    load ran at a fifth of the rate; the super-document string spliced on
    every update kept them at about 1.3x / 2.7x / 1.4x, and with each
    segment owning its text they read about 1.1x / 1.3x / 0.7–1.0x (a
    shared 2-core box).  Generous bounds, best of three attempts: this is
    a shape check, not a timer."""
    for _attempt in range(3):
        insert, remove, ingest = _scaling_ratios()
        if insert <= 3 and remove <= 3 and ingest <= 2:
            return
    pytest.fail(
        f"4 000 forms over 250: insert x{insert:.1f}, remove x{remove:.1f} "
        f"(bound 3), ingest seconds per element x{ingest:.1f} (bound 2)"
    )
