"""The insert's probes of its parent, against the scans they replace.

``LazyXMLDatabase._depth_at`` bisects the parent's block and walks its
parent rows; its reference is the linear scan over every row before the
position that it replaced.  ``ERNode.to_global`` and ``ERNode.pieces``
read a node with no tombstones without compiling its event list; their
reference is the answer read off the compiled state.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.database import LazyXMLDatabase
from repro.core.ertree import ERTree
from repro.core.segment import DUMMY_ROOT_SID
from repro.errors import InvalidSegmentError, ReproError


def reference_depth_at(db: LazyXMLDatabase, parent, position: int):
    """``_depth_at`` as a linear scan of every row before the position."""
    node = parent
    anchor = position
    while node.sid != DUMMY_ROOT_SID:
        local = node.to_local(position)
        best = boundary = 0
        block = db.index.block(node.sid)
        for start, end, level in zip(block.starts, block.ends, block.levels):
            if start >= local:
                break
            if local < end:
                best = max(best, level)
                boundary = max(boundary, start)
            elif end > boundary:
                boundary = end
        if node is parent:
            anchor = node.to_global(boundary, count_ties=False)
            before = bisect_left([child.gp for child in node.children], position)
            if before:
                anchor = max(anchor, node.children[before - 1].end)
        if best:
            return best, anchor
        node = node.parent
    return 0, anchor


def assert_depths_match(db: LazyXMLDatabase) -> None:
    """Every position of the text: element starts and ends, child-segment
    boundaries, prolog and trailing text, and the gaps between them."""
    for position in range(db.document_length + 1):
        parent = db.log.ertree.innermost_segment(position)
        assert db._depth_at(parent, position) == reference_depth_at(
            db, parent, position
        ), (position, db.text)


# ----------------------------------------------------------------------
# _depth_at over histories


#: Fragments with prolog and trailing material, so that positions outside
#: a segment's root element send the walk up the ancestor chain.
FRAGMENTS = (
    "<a><b>x</b><c/></a>",
    "<!--p--><b>y<c/></b>",
    "<?pi d?><c><a>z</a><b/>w</c> ",
    "<a/><!--t-->",
    "<b><b><a>v</a></b></b>",
)

_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "insert", "insert", "remove_any", "remove_start_tag",
             "remove_segment", "repack"]
        ),
        st.integers(0, 10_000),
        st.integers(0, 10_000),
    ),
    min_size=1,
    max_size=12,
)


def _try(call) -> None:
    try:
        call()
    except ReproError:
        pass  # refused: nothing changed


def apply_op(db: LazyXMLDatabase, kind: str, a: int, b: int) -> None:
    live = list(db.log.ertree.nodes())[1:]
    if kind == "insert" or not live:
        position = b % (db.document_length + 1)
        _try(lambda: db.insert(FRAGMENTS[a % len(FRAGMENTS)], position))
    elif kind == "remove_any":
        position = b % db.document_length
        _try(lambda: db.remove(position, min(1 + a % 9, db.document_length - position)))
    elif kind == "remove_start_tag":
        # Refused where the document parses; elsewhere it leaves the
        # element's record behind with a tombstone over its head, which a
        # repack turns into two rows on one start.
        node = live[a % len(live)]
        rows = list(db.index.block(node.sid).rows())
        if rows:
            start = node.to_global(rows[b % len(rows)][1])
            length = db.text.index(">", start) + 1 - start
            _try(lambda: db.remove(start, length))
    elif kind == "remove_segment":
        _try(lambda: db.remove_segment(live[a % len(live)].sid))
    else:
        db.repack(live[a % len(live)].sid)


@settings(max_examples=150, deadline=None)
@given(_OPS)
@example([("insert", 0, 0), ("insert", 4, 3), ("repack", 0, 0)])
def test_depth_at_matches_the_linear_scan(ops):
    db = LazyXMLDatabase()
    for kind, a, b in ops:
        apply_op(db, kind, a, b)
        assert_depths_match(db)
    db.check_invariants()


def test_depth_at_over_rows_tied_on_start():
    """A document that does not parse (two roots) lets a remove take an
    element's start tag and keep its record; repacked, the record starts
    where its first child does.  The parent rows skip a row on the same
    start, so the walk reads the rows sharing one as a single step."""
    db = LazyXMLDatabase()
    top = db.insert("<!--c--><r><a><b/>t<b/></a>u</r>")
    db.insert("<x/>", len("<!--c-->"))  # a second root: not element-only
    text = db.text
    db.remove(text.index("<a>"), len("<a>"))
    sid = db.repack(top.sid).new_sids[0]
    block = db.index.block(sid)
    assert len(set(block.starts)) < len(block.starts)  # a tie on start
    assert_depths_match(db)
    db.check_invariants()


# ----------------------------------------------------------------------
# compile-free coordinate reads on hole-free nodes


def compiled_to_global(node, local: int, count_ties: bool) -> int:
    """``to_global`` read off the compiled prefix sums."""
    _, lps, len_prefix, *_ = node._compiled()
    if not 0 <= local <= node.length - len_prefix[-1]:
        raise InvalidSegmentError(f"local offset {local} outside")
    cut = (bisect_right if count_ties else bisect_left)(lps, local)
    return node.gp + local + len_prefix[cut]


def compiled_pieces(node, lo: int, hi: int, out: list) -> list:
    """``pieces`` walked over the compiled events."""
    events, offsets = node._compiled()[0], node._compiled()[6]
    first = bisect_right(offsets, lo - node.gp) - 1
    virtual, actual = (
        (events[first][0], node.gp + offsets[first]) if first >= 0 else (0, node.gp)
    )
    for position, _, size, child in events[max(first, 0):]:
        actual = node._own(virtual, actual, position, lo, hi, out)
        virtual = position
        if actual >= hi:
            return out
        if actual + size > lo:
            compiled_pieces(child, lo, hi, out)
        actual += size
    node._own(virtual, actual, len(node.fragment), lo, hi, out)
    return out


_LAYOUTS = st.lists(
    st.tuples(st.integers(0, 10_000), st.integers(1, 6)), min_size=1, max_size=14
)


def _layout(steps) -> ERTree:
    """Segments inserted at drawn offsets (ties on lp included), no
    removal: every node is hole-free.  Each own text is distinct letters."""
    tree = ERTree()
    tree.add_segment(0, 8)
    for at, length in steps:
        tree.add_segment(at % (tree.total_length + 1), length)
    for node in list(tree.nodes())[1:]:
        own = node.virtual_own_length()
        node.fragment = "".join(chr(97 + (node.sid + i) % 26) for i in range(own))
    return tree


@settings(max_examples=200, deadline=None)
@given(_LAYOUTS)
@example([(4, 2), (4, 3), (0, 1), (8, 2)])  # two children at one lp
def test_hole_free_to_global_matches_the_compiled_answer(steps):
    tree = _layout(steps)
    for node in tree.nodes():
        own = node.virtual_own_length()
        for local in range(-1, own + 2):
            for count_ties in (True, False):
                try:
                    expected = compiled_to_global(node, local, count_ties)
                except InvalidSegmentError:
                    expected = InvalidSegmentError
                node._rp = None  # as an update leaves it
                try:
                    found = node.to_global(local, count_ties=count_ties)
                except InvalidSegmentError:
                    found = InvalidSegmentError
                assert (found, node._rp) == (expected, None)


@settings(max_examples=200, deadline=None)
@given(_LAYOUTS, st.integers(0, 10_000), st.integers(0, 10_000))
def test_hole_free_pieces_match_the_compiled_walk(steps, a, b):
    tree = _layout(steps)
    total = tree.total_length
    lo, hi = sorted((a % (total + 1), b % (total + 1)))
    for node in tree.nodes():
        if node.gp <= lo and hi <= node.end:
            assert node.pieces(lo, hi, []) == compiled_pieces(node, lo, hi, [])
    whole = tree.root.read(0, total)
    assert len(whole) == total and tree.root.read(lo, hi) == whole[lo:hi]
