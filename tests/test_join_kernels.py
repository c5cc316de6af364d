"""Kernel-parity property suite: the shipped kernel == the legacy loop.

The column-at-a-time kernels (:mod:`repro.joins.kernels`) rewrite the
correctness-critical inner loops of Stack-Tree-Desc and the cross-segment
candidate scan.  This suite is their contract: on every input from the
kernels' domain — start-sorted laminar interval families — the shipped
run-at-a-time kernel returns the *byte-identical* pair list of the
per-descendant frame walk it replaced (``tests.helpers.
stack_tree_desc_legacy``), and a whole structural join whose in-segment
joins run the legacy loop returns identical rows **and** identical
:class:`~repro.core.join.JoinStatistics` ground truth.

Layout generation is adversarial by construction: the Hypothesis tree
strategy draws zero-width close tags (maxend ties: a child's end equals
its parent's), zero gaps (an ancestor's end equals the next element's
start), deep single-child chains (fully-nested spines), empty and
singleton role lists, and overlapping A/D roles (duplicate starts across
the two lists, i.e. self-join inputs).
"""

from __future__ import annotations

import dataclasses
from array import array
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import join as join_module
from repro.core.join import JoinStatistics
from repro.joins import kernels
from repro.joins.stack_tree import stack_tree_desc
from repro.workloads.chopper import chop_text
from repro.xml.parser import parse

from tests.helpers import stack_tree_desc_legacy


class El(NamedTuple):
    """Minimal element shape the kernels consume."""

    start: int
    end: int
    level: int


def _pairs(ancestors, descendants, axis, *, columns, context=None):
    kwargs = {}
    if columns:
        kwargs = {
            "a_starts": array("q", (a.start for a in ancestors)),
            "a_ends": array("q", (a.end for a in ancestors)),
            "d_starts": array("q", (d.start for d in descendants)),
        }
    return stack_tree_desc(
        ancestors, descendants, axis, context=context, **kwargs
    )


# ----------------------------------------------------------------------
# laminar-family strategy


@st.composite
def laminar_roles(draw):
    """A random laminar interval family plus two (possibly overlapping)
    start-sorted role subsets — the ancestor and descendant lists.

    Intervals come from a random tree labeling: open tags are 1 wide
    (unique starts), close tags are 0 or 1 wide (0 ⇒ a node's end ties
    with its last child's end), sibling gaps are 0..2 (0 ⇒ an element's
    end ties with the next sibling's start).
    """
    elements: list[El] = []

    def build(cursor: int, level: int, fuel: int) -> int:
        n_children = draw(st.integers(0, 3)) if fuel > 0 else 0
        for _ in range(n_children):
            cursor += draw(st.integers(0, 2))  # sibling gap (0 = adjacency)
            start = cursor
            cursor += 1  # open tag: starts stay unique
            cursor += draw(st.integers(0, 3))  # text content
            cursor = build(cursor, level + 1, fuel - 1)
            cursor += draw(st.integers(0, 1))  # close tag (0 = maxend tie)
            end = max(cursor, start + 1)
            cursor = end
            elements.append(El(start, end, level))
        return cursor

    build(0, 1, draw(st.integers(0, 4)))
    elements.sort(key=lambda e: e.start)
    n = len(elements)
    a_idx = draw(st.lists(st.integers(0, n - 1), unique=True)) if n else []
    d_idx = draw(st.lists(st.integers(0, n - 1), unique=True)) if n else []
    ancestors = [elements[i] for i in sorted(a_idx)]
    descendants = [elements[i] for i in sorted(d_idx)]
    return ancestors, descendants


class _RecordingContext:
    """Counts the budget charges a kernel makes (totals must agree)."""

    def __init__(self):
        self.rows = 0
        self.ticks = 0

    def tick(self):
        self.ticks += 1

    def charge_rows(self, n):
        self.rows += n


# ----------------------------------------------------------------------
# kernel-level parity


@settings(max_examples=200, deadline=None)
@given(roles=laminar_roles(), axis=st.sampled_from(["descendant", "child"]))
def test_kernel_parity_generated(roles, axis):
    ancestors, descendants = roles
    reference = stack_tree_desc_legacy(ancestors, descendants, axis)
    for columns in (False, True):
        assert (
            _pairs(ancestors, descendants, axis, columns=columns) == reference
        ), f"kernel (columns={columns}) diverged from legacy"


@settings(max_examples=100, deadline=None)
@given(roles=laminar_roles(), axis=st.sampled_from(["descendant", "child"]))
def test_kernel_row_charges_agree(roles, axis):
    """Charged row totals match the legacy loop's (enforcement points may
    differ, the accounted work may not)."""
    ancestors, descendants = roles
    shipped = _RecordingContext()
    _pairs(ancestors, descendants, axis, columns=True, context=shipped)
    legacy = _RecordingContext()
    stack_tree_desc_legacy(ancestors, descendants, axis, context=legacy)
    assert shipped.rows == legacy.rows


CHAIN = [El(i, 400 - i, i + 1) for i in range(200)]  # fully nested spine

ADVERSARIAL = [
    # (name, ancestors, descendants)
    ("both empty", [], []),
    ("empty ancestors", [], [El(0, 2, 1)]),
    ("empty descendants", [El(0, 2, 1)], []),
    ("singletons disjoint", [El(0, 2, 1)], [El(5, 6, 1)]),
    ("singleton contains", [El(0, 9, 1)], [El(3, 4, 2)]),
    ("duplicate start across lists", [El(0, 9, 1)], [El(0, 4, 1)]),
    ("identical lists (self-join)", [El(0, 9, 1), El(2, 5, 2)],
     [El(0, 9, 1), El(2, 5, 2)]),
    ("maxend tie parent/child", [El(0, 6, 1)], [El(3, 6, 2)]),
    ("adjacency tie end==start", [El(0, 3, 1), El(3, 6, 1)], [El(4, 5, 2)]),
    ("fully nested chain", CHAIN[0::2], CHAIN[1::2]),
    ("chain self-join", CHAIN, CHAIN),
    ("disjoint runs gallop", [El(100 + 4 * i, 102 + 4 * i, 1) for i in range(50)],
     [El(4 * i, 2 + 4 * i, 1) for i in range(25)]
     + [El(300 + 4 * i, 301 + 4 * i, 2) for i in range(25)]),
    ("one ancestor over long run", [El(0, 1000, 1)],
     [El(1 + 2 * i, 2 + 2 * i, 2) for i in range(80)]),
]


@pytest.mark.parametrize("axis", ["descendant", "child"])
@pytest.mark.parametrize(
    "name,ancestors,descendants", ADVERSARIAL, ids=[c[0] for c in ADVERSARIAL]
)
def test_kernel_parity_adversarial(name, ancestors, descendants, axis):
    reference = stack_tree_desc_legacy(ancestors, descendants, axis)
    for columns in (False, True):
        assert (
            _pairs(ancestors, descendants, axis, columns=columns) == reference
        )


# ----------------------------------------------------------------------
# cross-segment candidate-scan parity


@settings(max_examples=150, deadline=None)
@given(
    ends=st.lists(st.integers(0, 40), min_size=0, max_size=200),
    branch=st.integers(-1, 45),
    data=st.data(),
)
def test_select_open_parity(ends, branch, data):
    """The candidate scan selects exactly the bisected prefix's records
    still open at the branch point, appended after what ``out`` held."""
    ends.sort()  # prefix-max columns are non-decreasing
    records = [El(i, e, 1) for i, e in enumerate(ends)]
    column = array("q", ends)
    hi = data.draw(st.integers(0, len(ends)))
    out: list = ["kept"]
    kernels.select_open(records, column, hi, branch, out)
    assert out == ["kept"] + [r for r in records[:hi] if r.end > branch]


# ----------------------------------------------------------------------
# whole-join parity: rows AND JoinStatistics

SPINE = (
    "<t0>" * 30 + "<t1>x</t1>" + "</t0>" * 30
)  # fully-nested chain document

MIXED = (
    "<doc>"
    + "".join(
        f"<sec><a><d>p{i}</d><x/><d>q{i}</d></a><d>r{i}</d></sec>"
        for i in range(12)
    )
    + "<empty1/><empty2/>"  # segments with neither tag: empty runs
    + "<a><a><a><d>deep</d></a></a></a>"  # nested same-tag chain
    + "</doc>"
)

JOIN_CASES = [
    # (text, n_segments, shape, tag_a, tag_d)
    (MIXED, 1, "balanced", "a", "d"),
    (MIXED, 4, "balanced", "a", "d"),
    (MIXED, 5, "nested", "a", "d"),
    (MIXED, 4, "balanced", "d", "a"),  # reversed: zero-pair direction
    (MIXED, 4, "balanced", "a", "missing"),  # absent descendant tag
    (MIXED, 4, "balanced", "a", "a"),  # self-join
    (SPINE, 6, "nested", "t0", "t1"),
    (SPINE, 6, "nested", "t0", "t0"),  # duplicate starts / deep chain
]


def _join(text, n_segments, shape, tag_a, tag_d, axis):
    db, _ = chop_text(text, n_segments, shape, seed=7)
    db.prepare_for_query()
    stats = JoinStatistics()
    rows = db.structural_join(tag_a, tag_d, axis, stats=stats)
    return rows, dataclasses.asdict(stats)


def _join_shipped_and_legacy(*case):
    """One whole Lazy-Join as shipped, one with every in-segment join run
    by the legacy loop."""
    shipped = _join(*case)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(join_module, "stack_tree_desc", stack_tree_desc_legacy)
        legacy = _join(*case)
    return shipped, legacy


@pytest.mark.parametrize("axis", ["descendant", "child"])
@pytest.mark.parametrize(
    "text,n,shape,tag_a,tag_d",
    JOIN_CASES,
    ids=[f"{i}-{c[3]}-{c[4]}-n{c[1]}" for i, c in enumerate(JOIN_CASES)],
)
def test_structural_join_parity(text, n, shape, tag_a, tag_d, axis):
    (rows, stats), (ref_rows, ref_stats) = _join_shipped_and_legacy(
        text, n, shape, tag_a, tag_d, axis
    )
    assert rows == ref_rows, "rows diverged"
    assert stats == ref_stats, "JoinStatistics diverged"


@settings(max_examples=25, deadline=None)
@given(
    fragments=st.lists(
        st.sampled_from(
            [
                "<a><d>x</d></a>",
                "<a><a><d>y</d></a></a>",
                "<d><a/></d>",
                "<x>gap</x>",
                "<a/>",
                "<d/>",
            ]
        ),
        min_size=1,
        max_size=6,
    ),
    n_segments=st.sampled_from([1, 3]),
    axis=st.sampled_from(["descendant", "child"]),
)
def test_structural_join_parity_generated(fragments, n_segments, axis):
    text = "<r>" + "".join(fragments) + "</r>"
    n = min(n_segments, len(parse(text).elements))
    shipped, legacy = _join_shipped_and_legacy(
        text, n, "balanced", "a", "d", axis
    )
    assert shipped == legacy


# ----------------------------------------------------------------------
# push_kept: the Section 4.2 optimization-(i) filter == the quadratic scan


_spans = st.lists(
    st.tuples(st.integers(0, 400), st.integers(1, 60)),
    max_size=40,
)
_lps = st.lists(st.integers(0, 500), max_size=24)


@settings(max_examples=200, deadline=None)
@given(elements=_spans, lps=_lps)
def test_push_kernels_agree_with_brute_force(elements, lps):
    """push_kept == the quadratic containment scan."""
    elements.sort()
    starts = array("q", (start for start, _ in elements))
    ends = array("q", (start + length for start, length in elements))
    lps_sorted = sorted(lps)
    brute = [
        i
        for i, (start, length) in enumerate(elements)
        if any(start < lp < start + length for lp in lps_sorted)
    ]
    expected = None if len(brute) == len(elements) else brute
    assert kernels.push_kept(starts, ends, lps_sorted) == expected
