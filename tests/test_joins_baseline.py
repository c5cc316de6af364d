"""Tests for Stack-Tree-Desc and the join oracles in ``tests/helpers.py``.

The interval lists come from real parsed trees or from a random-tree
generator, so they always have the tree-shaped no-partial-overlap property
the algorithms assume.  ``naive_containment_join`` is the oracle.
"""

from __future__ import annotations

import random
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.joins import stack_tree_desc
from repro.xml.parser import parse
from tests.helpers import merge_containment_join, naive_containment_join


class Interval(NamedTuple):
    start: int
    end: int
    level: int


def intervals_from_xml(text: str, tag: str) -> list[Interval]:
    doc = parse(text)
    return [
        Interval(e.start, e.end, e.level) for e in doc.elements if e.tag == tag
    ]


def random_tree_intervals(rnd: random.Random, n_nodes: int, tags=("a", "d")):
    """Generate a random tree; return {tag: sorted interval list}."""
    from repro.xml.serializer import Node

    root = Node(rnd.choice(tags))
    nodes = [root]
    for _ in range(n_nodes - 1):
        parent = rnd.choice(nodes)
        child = parent.child(rnd.choice(tags))
        nodes.append(child)
    text = root.to_xml()
    return {tag: intervals_from_xml(text, tag) for tag in tags}


class TestStackTreeDesc:
    def test_simple_containment(self):
        a = intervals_from_xml("<a><d/></a>", "a")
        d = intervals_from_xml("<a><d/></a>", "d")
        assert stack_tree_desc(a, d) == [(a[0], d[0])]

    def test_no_containment(self):
        text = "<r><a/><d/></r>"
        pairs = stack_tree_desc(
            intervals_from_xml(text, "a"), intervals_from_xml(text, "d")
        )
        assert pairs == []

    def test_nested_ancestors_all_match(self):
        text = "<a><a><a><d/></a></a></a>"
        pairs = stack_tree_desc(
            intervals_from_xml(text, "a"), intervals_from_xml(text, "d")
        )
        assert len(pairs) == 3

    def test_output_sorted_by_descendant(self):
        text = "<a><d/><a><d/></a><d/></a>"
        a = intervals_from_xml(text, "a")
        d = intervals_from_xml(text, "d")
        pairs = stack_tree_desc(a, d)
        desc_starts = [p[1].start for p in pairs]
        assert desc_starts == sorted(desc_starts)

    def test_self_join_excludes_identity(self):
        text = "<a><a><a/></a></a>"
        a = intervals_from_xml(text, "a")
        pairs = stack_tree_desc(a, a)
        assert all(anc != desc for anc, desc in pairs)
        assert len(pairs) == 3  # (1,2) (1,3) (2,3)

    def test_child_axis_levels(self):
        text = "<a><x><d/></x><d/></a>"
        a = intervals_from_xml(text, "a")
        d = intervals_from_xml(text, "d")
        pairs = stack_tree_desc(a, d, axis="child")
        assert len(pairs) == 1
        assert pairs[0][1].level == 2

    def test_child_axis_nested_same_tag(self):
        text = "<a><a><d/></a></a>"
        a = intervals_from_xml(text, "a")
        d = intervals_from_xml(text, "d")
        pairs = stack_tree_desc(a, d, axis="child")
        assert len(pairs) == 1
        assert pairs[0][0].level == 2

    def test_invalid_axis(self):
        with pytest.raises(QueryError):
            stack_tree_desc([], [], axis="sibling")

    def test_empty_inputs(self):
        assert stack_tree_desc([], []) == []
        a = intervals_from_xml("<a/>", "a")
        assert stack_tree_desc(a, []) == []
        assert stack_tree_desc([], a) == []

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_naive_on_random_trees(self, seed):
        rnd = random.Random(seed)
        by_tag = random_tree_intervals(rnd, rnd.randint(2, 60))
        for axis in ("descendant", "child"):
            got = sorted(stack_tree_desc(by_tag["a"], by_tag["d"], axis=axis))
            want = sorted(
                naive_containment_join(by_tag["a"], by_tag["d"], axis=axis)
            )
            assert got == want

    @pytest.mark.parametrize("seed", range(8))
    def test_self_join_matches_naive(self, seed):
        rnd = random.Random(100 + seed)
        by_tag = random_tree_intervals(rnd, rnd.randint(2, 40))
        got = sorted(stack_tree_desc(by_tag["a"], by_tag["a"]))
        want = sorted(naive_containment_join(by_tag["a"], by_tag["a"]))
        assert got == want


class TestMergeJoin:
    @pytest.mark.parametrize("seed", range(15))
    def test_matches_naive_on_random_trees(self, seed):
        rnd = random.Random(200 + seed)
        by_tag = random_tree_intervals(rnd, rnd.randint(2, 60))
        for axis in ("descendant", "child"):
            got = sorted(
                merge_containment_join(by_tag["a"], by_tag["d"], axis=axis)
            )
            want = sorted(
                naive_containment_join(by_tag["a"], by_tag["d"], axis=axis)
            )
            assert got == want

    def test_output_sorted_by_ancestor(self):
        text = "<a><d/><a><d/></a></a>"
        pairs = merge_containment_join(
            intervals_from_xml(text, "a"), intervals_from_xml(text, "d")
        )
        anc_starts = [p[0].start for p in pairs]
        assert anc_starts == sorted(anc_starts)

    def test_invalid_axis(self):
        with pytest.raises(QueryError):
            merge_containment_join([], [], axis="parent")

    def test_naive_invalid_axis(self):
        with pytest.raises(QueryError):
            naive_containment_join([], [], axis="x")


@st.composite
def random_trees(draw):
    seed = draw(st.integers(0, 10_000))
    size = draw(st.integers(2, 50))
    return random_tree_intervals(random.Random(seed), size)


class TestEquivalenceProperties:
    @settings(max_examples=50, deadline=None)
    @given(random_trees())
    def test_all_three_agree(self, by_tag):
        naive = sorted(naive_containment_join(by_tag["a"], by_tag["d"]))
        assert sorted(stack_tree_desc(by_tag["a"], by_tag["d"])) == naive
        assert sorted(merge_containment_join(by_tag["a"], by_tag["d"])) == naive

    @settings(max_examples=50, deadline=None)
    @given(random_trees())
    def test_child_pairs_subset_of_descendant(self, by_tag):
        child = set(stack_tree_desc(by_tag["a"], by_tag["d"], axis="child"))
        desc = set(stack_tree_desc(by_tag["a"], by_tag["d"]))
        assert child <= desc

