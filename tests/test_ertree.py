"""Tests for the ER-tree and the Fig. 5 / Fig. 7 update algorithms.

Includes an independent *character model*: the super document as a list of
character owners, with its own parentage logic.  Random insert/remove
sequences must keep the ER-tree's (gp, length, parent) in exact agreement
with the model — this is the strongest check on the update algorithms,
covering every intersection case of Fig. 7.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ertree import ERTree
from repro.errors import InvalidSegmentError, SegmentNotFoundError


class CharModel:
    """Reference model: every character knows which segment owns it.

    Parentage is fixed at insertion time and never forgotten: the paper's
    algorithm may legitimately keep "empty shells" — segments whose own
    characters were all removed piecewise (assumption (iii) of Section 3.3:
    removing text does not necessarily delete SB-tree nodes) — so liveness
    in the model means "the segment's subtree still has characters".
    """

    def __init__(self):
        self.owners: list[int] = []
        self.parent: dict[int, int] = {}  # sid -> parent sid (0 = root)
        self.next_sid = 1

    def _subtree_sids(self, sid: int) -> set[int]:
        out = {sid}
        changed = True
        while changed:
            changed = False
            for child, parent in self.parent.items():
                if parent in out and child not in out:
                    out.add(child)
                    changed = True
        return out

    def subtree_span(self, sid: int) -> tuple[int, int]:
        """[lo, hi) span of the segment's subtree characters."""
        members = self._subtree_sids(sid)
        indices = [i for i, owner in enumerate(self.owners) if owner in members]
        return indices[0], indices[-1] + 1

    def live_sids(self) -> set[int]:
        """Segments whose subtree still holds at least one character."""
        owned = set(self.owners)
        live = set()
        for sid in owned:
            node = sid
            while node != 0:
                live.add(node)
                node = self.parent[node]
        return live

    def _depth(self, sid: int) -> int:
        depth = 0
        while sid != 0:
            sid = self.parent[sid]
            depth += 1
        return depth

    def innermost_containing(self, position: int) -> int:
        # Smallest strictly-containing subtree span; ties (a segment whose
        # own characters were all removed shares its span with a child) go
        # to the deepest segment, matching the ER-tree's descent.
        best, best_key = 0, (len(self.owners) + 1, 0)
        for sid in self.live_sids():
            lo, hi = self.subtree_span(sid)
            if lo < position < hi:
                key = (hi - lo, -self._depth(sid))
                if key < best_key:
                    best, best_key = sid, key
        return best

    def insert(self, position: int, length: int) -> int:
        sid = self.next_sid
        self.next_sid += 1
        self.parent[sid] = self.innermost_containing(position)
        self.owners[position:position] = [sid] * length
        return sid

    def remove(self, position: int, length: int) -> None:
        del self.owners[position : position + length]


def assert_tree_matches_model(tree: ERTree, model: CharModel) -> None:
    tree.check_invariants()
    live = model.live_sids()
    tree_sids = {node.sid for node in tree.nodes()} - {0}
    # The tree may keep empty shells beyond the model's live set, but every
    # live segment must be present.
    assert live <= tree_sids
    for shell_sid in tree_sids - live:
        assert tree.node(shell_sid).length == 0, (
            f"non-live sid {shell_sid} has nonzero length"
        )
    assert tree.total_length == len(model.owners)
    for sid in live:
        node = tree.node(sid)
        lo, hi = model.subtree_span(sid)
        assert node.gp == lo, f"sid {sid}: gp {node.gp} != model {lo}"
        assert node.length == hi - lo, (
            f"sid {sid}: length {node.length} != model {hi - lo}"
        )
        parent_sid = node.parent.sid if node.parent else None
        assert parent_sid == model.parent[sid], (
            f"sid {sid}: parent {parent_sid} != model {model.parent[sid]}"
        )


class TestInsertion:
    def test_first_segment(self):
        tree = ERTree()
        node = tree.add_segment(0, 10)
        assert node.gp == 0 and node.length == 10 and node.lp == 0
        assert node.parent is tree.root
        assert tree.total_length == 10

    def test_append_sibling(self):
        tree = ERTree()
        first = tree.add_segment(0, 10)
        second = tree.add_segment(10, 5)
        assert second.parent is tree.root
        # Definition 2: lp = gp - parent.gp - sum(left sibling lengths).
        assert second.lp == 10 - 0 - first.length == 0
        assert first.gp == 0 and second.gp == 10

    def test_prepend_shifts_existing(self):
        tree = ERTree()
        first = tree.add_segment(0, 10)
        second = tree.add_segment(0, 4)
        assert second.gp == 0 and first.gp == 4
        assert tree.root.children[0] is second

    def test_insert_at_existing_start_shifts_it(self):
        # The inclusive-shift deviation from the paper's strict inequality.
        tree = ERTree()
        a = tree.add_segment(0, 10)
        b = tree.add_segment(10, 6)
        c = tree.add_segment(10, 3)  # lands exactly at b's start
        assert c.gp == 10 and b.gp == 13
        assert c.parent is tree.root and b.parent is tree.root

    def test_nested_insert(self):
        tree = ERTree()
        outer = tree.add_segment(0, 20)
        inner = tree.add_segment(5, 6)
        assert inner.parent is outer
        assert outer.length == 26
        assert inner.lp == 5
        assert tree.total_length == 26

    def test_local_position_definition_2(self):
        # lp = gp - parent.gp - sum of left-sibling lengths.
        tree = ERTree()
        parent = tree.add_segment(0, 100)
        c1 = tree.add_segment(10, 7)
        c2 = tree.add_segment(30, 5)  # 30 - 0 - 7 = 23
        assert c1.lp == 10
        assert c2.lp == 30 - parent.gp - c1.length
        c0 = tree.add_segment(5, 4)  # left of both
        assert c0.lp == 5
        # Existing local positions never change.
        assert c1.lp == 10 and c2.lp == 23

    def test_lp_immutable_under_left_insertions(self):
        tree = ERTree()
        tree.add_segment(0, 50)
        target = tree.add_segment(20, 8)
        before = target.lp
        tree.add_segment(3, 10)  # left sibling insertion
        assert target.lp == before
        assert target.gp == 30  # global position did shift

    def test_ancestor_lengths_grow(self):
        tree = ERTree()
        a = tree.add_segment(0, 30)
        b = tree.add_segment(10, 10)
        c = tree.add_segment(15, 4)
        assert c.parent is b
        assert b.length == 14
        assert a.length == 44
        assert tree.root.length == 44

    def test_path_records_ancestry(self):
        tree = ERTree()
        a = tree.add_segment(0, 30)
        b = tree.add_segment(5, 10)
        c = tree.add_segment(7, 4)
        assert a.path == (0, a.sid)
        assert b.path == (0, a.sid, b.sid)
        assert c.path == (0, a.sid, b.sid, c.sid)
        assert c.depth == 3

    def test_children_sorted_by_gp(self):
        tree = ERTree()
        tree.add_segment(0, 100)
        positions = [50, 10, 30, 70, 20]
        for p in positions:
            tree.add_segment(p, 2)
        parent = tree.node(1)
        gps = [c.gp for c in parent.children]
        assert gps == sorted(gps)

    def test_explicit_sid(self):
        tree = ERTree()
        node = tree.add_segment(0, 5, sid=42)
        assert node.sid == 42
        assert tree.node(42) is node

    def test_duplicate_sid_rejected(self):
        tree = ERTree()
        tree.add_segment(0, 5, sid=3)
        with pytest.raises(InvalidSegmentError):
            tree.add_segment(5, 5, sid=3)

    def test_nonpositive_length_rejected(self):
        tree = ERTree()
        with pytest.raises(InvalidSegmentError):
            tree.add_segment(0, 0)
        with pytest.raises(InvalidSegmentError):
            tree.add_segment(0, -3)

    def test_out_of_bounds_position_rejected(self):
        tree = ERTree()
        tree.add_segment(0, 10)
        with pytest.raises(InvalidSegmentError):
            tree.add_segment(11, 5)
        with pytest.raises(InvalidSegmentError):
            tree.add_segment(-1, 5)

    def test_unknown_sid_lookup_raises(self):
        with pytest.raises(SegmentNotFoundError):
            ERTree().node(99)


class TestLocalGlobalMapping:
    @pytest.fixture
    def tree(self):
        tree = ERTree()
        self_parent = tree.add_segment(0, 100)  # sid 1
        tree.add_segment(20, 10)  # sid 2, lp 20
        tree.add_segment(50, 6)  # sid 3, lp 40 (50 - 0 - 10)
        return tree

    def test_to_local_before_children(self, tree):
        node = tree.node(1)
        assert node.to_local(5) == 5

    def test_to_local_between_children(self, tree):
        node = tree.node(1)
        # Global 40 is after child sid-2 (span [20,30)): local = 40 - 10.
        assert node.to_local(40) == 30

    def test_to_local_inside_child_collapses_to_lp(self, tree):
        node = tree.node(1)
        assert node.to_local(25) == tree.node(2).lp

    def test_to_local_after_all_children(self, tree):
        node = tree.node(1)
        assert node.to_local(60) == 60 - 10 - 6

    def test_to_local_out_of_span_raises(self, tree):
        with pytest.raises(InvalidSegmentError):
            tree.node(2).to_local(5)

    def test_to_global_inverts_to_local(self, tree):
        node = tree.node(1)
        for gp in [0, 5, 19, 30, 31, 45, 56, 99]:
            local = node.to_local(gp)
            assert node.to_global(local) in range(gp, gp + 17)

    def test_to_global_tie_bias(self, tree):
        node = tree.node(1)
        lp = tree.node(2).lp
        # count_ties=True: position after the child inserted at this lp.
        assert node.to_global(lp) == lp + tree.node(2).length
        # count_ties=False: position before it.
        assert node.to_global(lp, count_ties=False) == lp

    def test_to_global_bounds(self, tree):
        node = tree.node(2)
        with pytest.raises(InvalidSegmentError):
            node.to_global(11)

    def test_roundtrip_own_chars(self, tree):
        node = tree.node(1)
        own = []
        for gp in range(0, 100 + 16):
            try:
                local = node.to_local(gp)
            except InvalidSegmentError:
                continue
            if node.to_global(local, count_ties=False) == gp:
                own.append((gp, local))
        # locals of own characters are strictly increasing
        locals_seen = [loc for _, loc in own]
        assert locals_seen == sorted(set(locals_seen))


class TestRemoval:
    def build(self):
        """root -> s1[0,40) containing s2[10,20) containing s3[12,16)."""
        tree = ERTree()
        s1 = tree.add_segment(0, 30)
        s2 = tree.add_segment(10, 6)
        s3 = tree.add_segment(12, 4)
        return tree, s1, s2, s3

    def test_remove_exact_segment_deletes_it(self):
        tree, s1, s2, s3 = self.build()
        report = tree.remove_span(s2.gp, s2.length)
        assert set(report.removed_sids) == {s2.sid, s3.sid}
        assert s2.sid not in tree and s3.sid not in tree
        assert s1.length == 30
        assert tree.total_length == 30

    def test_remove_contained_span_shrinks_ancestors(self):
        tree, s1, s2, s3 = self.build()
        report = tree.remove_span(s3.gp, s3.length)
        assert report.removed_sids == [s3.sid]
        # s1 grew to 40 over the two insertions; removing s3's 4 chars
        # shrinks every ancestor on the path by 4.
        assert s2.length == 6 and s1.length == 36
        tree.check_invariants()

    def test_remove_span_inside_own_chars(self):
        tree, s1, s2, s3 = self.build()
        report = tree.remove_span(2, 3)  # purely s1's own characters
        assert report.removed_sids == []
        partial = {p.sid: (p.local_start, p.local_end) for p in report.partials}
        assert partial[s1.sid] == (2, 5)
        assert s1.length == 37
        assert s2.gp == 7  # shifted left

    def test_partial_report_collapses_inside_child(self):
        tree, s1, s2, s3 = self.build()
        report = tree.remove_span(s3.gp, s3.length)
        # s1 and s2 lose no own characters: no partial entries for them.
        assert all(p.sid not in (s1.sid, s2.sid) or p.local_start >= p.local_end
                   for p in report.partials)
        sids_with_partials = {p.sid for p in report.partials}
        assert s1.sid not in sids_with_partials
        assert s2.sid not in sids_with_partials

    def test_left_intersection(self):
        tree = ERTree()
        s1 = tree.add_segment(0, 30)
        s2 = tree.add_segment(10, 6)
        # Remove [12, 20): starts inside s2 (left-intersect), ends in s1.
        report = tree.remove_span(12, 8)
        assert report.removed_sids == []
        assert s2.length == 6 - (16 - 12)
        assert s2.gp == 10
        assert s1.length == 30 + 6 - 8
        partial = {p.sid: (p.local_start, p.local_end) for p in report.partials}
        assert partial[s2.sid] == (2, 6)
        assert partial[s1.sid] == (10, 14)  # own chars 10..14 (post-child)
        tree.check_invariants()

    def test_right_intersection(self):
        tree = ERTree()
        s1 = tree.add_segment(0, 30)
        s2 = tree.add_segment(10, 6)
        # Remove [6, 14): covers s2's head (right-intersect).
        report = tree.remove_span(6, 8)
        assert report.removed_sids == []
        assert s2.gp == 6  # surviving text begins where the hole starts
        assert s2.length == 2
        partial = {p.sid: (p.local_start, p.local_end) for p in report.partials}
        assert partial[s2.sid] == (0, 4)
        assert partial[s1.sid] == (6, 10)
        tree.check_invariants()

    def test_removal_spanning_multiple_children(self):
        tree = ERTree()
        s1 = tree.add_segment(0, 40)
        a = tree.add_segment(5, 5)  # [5,10)
        b = tree.add_segment(15, 5)  # [15,20)
        c = tree.add_segment(25, 5)  # [25,30)
        # Remove [8, 27): left-intersects a... actually covers tail of a,
        # all of b, head of c.
        report = tree.remove_span(8, 19)
        assert set(report.removed_sids) == {b.sid}
        assert a.length == 3
        assert c.gp == 8 and c.length == 3
        assert s1.length == 55 - 19
        tree.check_invariants()

    def test_global_positions_after_removal(self):
        tree = ERTree()
        s1 = tree.add_segment(0, 10)
        s2 = tree.add_segment(10, 10)
        s3 = tree.add_segment(20, 10)
        tree.remove_span(10, 10)
        assert s1.gp == 0 and s3.gp == 10
        assert s2.sid not in tree

    def test_remove_all(self):
        tree = ERTree()
        tree.add_segment(0, 10)
        tree.add_segment(10, 10)
        tree.remove_span(0, 20)
        assert tree.total_length == 0
        assert len(tree) == 1  # dummy root survives

    def test_remove_bounds_checked(self):
        tree = ERTree()
        tree.add_segment(0, 10)
        with pytest.raises(InvalidSegmentError):
            tree.remove_span(5, 10)
        with pytest.raises(InvalidSegmentError):
            tree.remove_span(0, 0)
        with pytest.raises(InvalidSegmentError):
            tree.remove_span(-1, 3)


class TestInnermostSegment:
    def test_top_level(self):
        tree = ERTree()
        tree.add_segment(0, 10)
        assert tree.innermost_segment(0) is tree.root
        assert tree.innermost_segment(10) is tree.root

    def test_strictly_inside(self):
        tree = ERTree()
        s1 = tree.add_segment(0, 10)
        assert tree.innermost_segment(5) is s1

    def test_boundaries_belong_to_parent(self):
        tree = ERTree()
        s1 = tree.add_segment(0, 20)
        s2 = tree.add_segment(5, 6)
        assert tree.innermost_segment(5) is s1
        assert tree.innermost_segment(11) is s1
        assert tree.innermost_segment(6) is s2

    def test_out_of_bounds_raises(self):
        tree = ERTree()
        with pytest.raises(InvalidSegmentError):
            tree.innermost_segment(1)


class TestModelConformance:
    """Random operation sequences checked against the character model."""

    def run_sequence(self, seed, steps=60, remove_probability=0.3):
        rnd = random.Random(seed)
        tree = ERTree()
        model = CharModel()
        for _ in range(steps):
            total = len(model.owners)
            if total > 4 and rnd.random() < remove_probability:
                gp = rnd.randrange(0, total - 1)
                length = rnd.randint(1, min(total - gp, 12))
                tree.remove_span(gp, length)
                model.remove(gp, length)
            else:
                gp = rnd.randint(0, total)
                length = rnd.randint(2, 9)
                node = tree.add_segment(gp, length, sid=model.next_sid)
                sid = model.insert(gp, length)
                assert node.sid == sid
            assert_tree_matches_model(tree, model)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_sequences(self, seed):
        self.run_sequence(seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_removal_heavy_sequences(self, seed):
        self.run_sequence(1000 + seed, steps=50, remove_probability=0.55)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 10_000)), min_size=1, max_size=40))
    def test_hypothesis_sequences(self, raw_ops):
        tree = ERTree()
        model = CharModel()
        for kind, value in raw_ops:
            total = len(model.owners)
            if kind == 1 and total > 2:
                gp = value % (total - 1)
                length = 1 + (value % min(total - gp, 8))
                tree.remove_span(gp, length)
                model.remove(gp, length)
            else:
                gp = value % (total + 1)
                length = 2 + value % 7
                tree.add_segment(gp, length, sid=model.next_sid)
                model.insert(gp, length)
        assert_tree_matches_model(tree, model)
