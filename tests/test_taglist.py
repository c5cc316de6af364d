"""Tests for the tag-list and tag registry."""

from __future__ import annotations

import random

import pytest

from repro.core.ertree import ERNode, ERTree
from repro.core.taglist import TagList, TagRegistry
from repro.errors import UpdateError
from tests.helpers import count_for, tids_for_segment


class TestTagRegistry:
    def test_intern_assigns_dense_ids(self):
        reg = TagRegistry()
        assert reg.intern("a") == 0
        assert reg.intern("b") == 1
        assert reg.intern("a") == 0
        assert len(reg) == 2

    def test_tid_of_unknown_is_none(self):
        assert TagRegistry().tid_of("nope") is None

    def test_name_of(self):
        reg = TagRegistry()
        reg.intern("x")
        assert reg.name_of(0) == "x"

    def test_contains(self):
        reg = TagRegistry()
        reg.intern("x")
        assert "x" in reg and "y" not in reg


def make_tree_with_segments(n=5, nested=False):
    tree = ERTree()
    nodes = []
    for i in range(n):
        if nested and nodes:
            node = tree.add_segment(nodes[-1].gp + 1, 10)
        else:
            node = tree.add_segment(tree.total_length, 10)
        nodes.append(node)
    return tree, nodes


class TestDynamicMode:
    def test_add_and_query_sorted_by_gp(self):
        tree, nodes = make_tree_with_segments(4)
        taglist = TagList(dynamic=True)
        # insert in a scrambled order; list must come out gp-sorted
        for node in [nodes[2], nodes[0], nodes[3], nodes[1]]:
            taglist.add_segment(node, {7: 2})
        gps = [node.gp for node in taglist.nodes(7)]
        assert gps == sorted(gps) and len(gps) == 4
        assert set(taglist.counts(7).values()) == {2}
        taglist.check_invariants()

    def test_zero_count_rejected(self):
        tree, nodes = make_tree_with_segments(1)
        taglist = TagList()
        with pytest.raises(UpdateError):
            taglist.add_segment(nodes[0], {1: 0})

    def test_remove_occurrences_decrements(self):
        tree, nodes = make_tree_with_segments(2)
        taglist = TagList()
        taglist.add_segment(nodes[0], {1: 3})
        taglist.remove_occurrences(nodes[0], {1: 2})
        assert count_for(taglist, 1, nodes[0].sid) == 1

    def test_remove_to_zero_drops_entry(self):
        tree, nodes = make_tree_with_segments(2)
        taglist = TagList()
        taglist.add_segment(nodes[0], {1: 2})
        taglist.add_segment(nodes[1], {1: 1})
        taglist.remove_occurrences(nodes[0], {1: 2})
        assert count_for(taglist, 1, nodes[0].sid) == 0
        assert len(taglist.nodes(1)) == 1
        taglist.check_invariants()

    def test_last_entry_removal_drops_list(self):
        tree, nodes = make_tree_with_segments(1)
        taglist = TagList()
        taglist.add_segment(nodes[0], {1: 1})
        taglist.remove_occurrences(nodes[0], {1: 1})
        assert list(taglist.tids()) == []
        assert taglist.counts(1) == {}

    def test_remove_more_than_recorded_raises(self):
        tree, nodes = make_tree_with_segments(1)
        taglist = TagList()
        taglist.add_segment(nodes[0], {1: 1})
        with pytest.raises(UpdateError):
            taglist.remove_occurrences(nodes[0], {1: 2})

    def test_remove_unknown_tid_raises(self):
        taglist = TagList()
        with pytest.raises(UpdateError):
            taglist.remove_occurrences(ERTree().root, {9: 1})

    def test_remove_unknown_segment_raises(self):
        tree, nodes = make_tree_with_segments(2)
        taglist = TagList()
        taglist.add_segment(nodes[0], {1: 1})
        with pytest.raises(UpdateError):
            taglist.remove_occurrences(nodes[1], {1: 1})
        # Same gp as a recorded segment, but not that segment.
        twin = ERNode(999, gp=nodes[0].gp, length=10, lp=0, parent=tree.root)
        with pytest.raises(UpdateError):
            taglist.remove_occurrences(twin, {1: 1})

    def test_remove_zero_is_noop(self):
        tree, nodes = make_tree_with_segments(1)
        taglist = TagList()
        taglist.add_segment(nodes[0], {1: 1})
        taglist.remove_occurrences(nodes[0], {1: 0})
        assert count_for(taglist, 1, nodes[0].sid) == 1

    def test_remove_from_the_middle(self):
        tree, nodes = make_tree_with_segments(6)
        taglist = TagList()
        for node in nodes:
            taglist.add_segment(node, {3: 2})
        taglist.remove_occurrences(nodes[3], {3: 2})
        assert count_for(taglist, 3, nodes[3].sid) == 0
        assert len(taglist.nodes(3)) == 5
        taglist.check_invariants()

    def test_entry_exposes_path(self):
        tree, nodes = make_tree_with_segments(3, nested=True)
        taglist = TagList()
        taglist.add_segment(nodes[2], {1: 1})
        (node,) = taglist.nodes(1)
        assert node.path == nodes[2].path
        assert dict(taglist.counts(1)) == {nodes[2].sid: 1}

    def test_tids_for_segment(self):
        tree, nodes = make_tree_with_segments(2)
        taglist = TagList()
        taglist.add_segment(nodes[0], {1: 1})
        taglist.add_segment(nodes[0], {2: 1})
        taglist.add_segment(nodes[1], {2: 1})
        assert sorted(tids_for_segment(taglist, nodes[0].sid)) == [1, 2]
        assert tids_for_segment(taglist, nodes[1].sid) == [2]

    def test_sorted_after_interleaved_gp_shifts(self):
        # Insertions shift gps but preserve relative order; list must stay
        # sorted without re-sorting.
        tree = ERTree()
        taglist = TagList()
        rnd = random.Random(3)
        for _ in range(30):
            gp = rnd.randint(0, tree.total_length)
            node = tree.add_segment(gp, 5)
            taglist.add_segment(node, {0: 1})
            gps = [node.gp for node in taglist.nodes(0)]
            assert gps == sorted(gps)


class TestStaticMode:
    def test_unsorted_until_finalize(self):
        tree, nodes = make_tree_with_segments(3)
        taglist = TagList(dynamic=False)
        for node in reversed(nodes):
            taglist.add_segment(node, {1: 1})
        assert taglist.awaiting_sort
        taglist.check_invariants()
        taglist.finalize()
        assert not taglist.awaiting_sort
        gps = [node.gp for node in taglist.nodes(1)]
        assert gps == sorted(gps)

    def test_removals_work_while_unsorted(self):
        tree, nodes = make_tree_with_segments(3)
        taglist = TagList(dynamic=False)
        for node in nodes:
            taglist.add_segment(node, {1: 1})
        taglist.remove_occurrences(nodes[1], {1: 1})
        taglist.finalize()
        assert taglist.nodes(1) == [nodes[0], nodes[2]]

    def test_unsort_restales(self):
        tree, nodes = make_tree_with_segments(4)
        taglist = TagList(dynamic=False)
        for node in nodes:
            taglist.add_segment(node, {1: 1})
        taglist.finalize()
        taglist.unsort()
        assert taglist.awaiting_sort
        taglist.finalize()
        gps = [node.gp for node in taglist.nodes(1)]
        assert gps == sorted(gps)

    def test_unsort_with_rng(self):
        tree, nodes = make_tree_with_segments(5)
        taglist = TagList(dynamic=False)
        for node in nodes:
            taglist.add_segment(node, {1: 1})
        taglist.finalize()
        taglist.unsort(random.Random(0))
        taglist.finalize()
        assert taglist.nodes(1) == nodes


class TestAccounting:
    def test_entry_count(self):
        tree, nodes = make_tree_with_segments(3)
        taglist = TagList()
        for tid in (1, 2):
            for node in nodes:
                taglist.add_segment(node, {tid: 1})
        assert taglist.entry_count() == 6

    def test_bytes_reflect_path_lengths(self):
        flat_tree, flat_nodes = make_tree_with_segments(5)
        nested_tree, nested_nodes = make_tree_with_segments(5, nested=True)
        flat_list, nested_list = TagList(), TagList()
        for node in flat_nodes:
            flat_list.add_segment(node, {0: 1})
        for node in nested_nodes:
            nested_list.add_segment(node, {0: 1})
        # Nested paths are longer, so the nested tag-list is bigger — the
        # O(T·N²) vs O(T·N·logN-ish) contrast behind Fig. 11(a).
        assert nested_list.approximate_bytes() > flat_list.approximate_bytes()
