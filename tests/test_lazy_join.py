"""Tests for the Lazy-Join algorithm (Fig. 9) against the text oracle."""

from __future__ import annotations

import random

import pytest

from tests.helpers import (
    assert_join_matches_oracle,
    merge_join_records,
    normalized_join,
)
from repro.core.database import LazyXMLDatabase
from repro.core.join import JoinStatistics
from repro.errors import QueryError
from repro.joins.stack_tree import std_join
from repro.workloads.join_mix import JoinMixConfig, build_join_mix, sweep_configs


class TestBasicScenarios:
    def test_single_segment_in_segment_join(self):
        db = LazyXMLDatabase()
        db.insert("<a><x/><d/><d/></a>")
        pairs = assert_join_matches_oracle(db, "a", "d")
        assert len(pairs) == 2

    def test_cross_segment_simple(self):
        db = LazyXMLDatabase()
        db.insert("<a><hook/></a>")
        db.insert("<d/>", position=db.text.index("<hook/>"))
        stats = JoinStatistics()
        pairs = db.structural_join("a", "d", stats=stats)
        assert len(pairs) == 1
        assert stats.cross_pairs == 1 and stats.in_segment_pairs == 0
        assert_join_matches_oracle(db, "a", "d")

    def test_element_not_containing_insertion_point_skipped(self):
        db = LazyXMLDatabase()
        db.insert("<r><a><hook/></a><a/></r>")
        db.insert("<d/>", position=db.text.index("<hook/>"))
        pairs = assert_join_matches_oracle(db, "a", "d")
        assert len(pairs) == 1  # only the wrapping <a>

    def test_multi_level_cross_joins(self):
        # A-elements in grandparent and parent segments both join D's in
        # the grandchild segment (Proposition 3 transitively).
        db = LazyXMLDatabase()
        db.insert("<a><h1/></a>")
        db.insert("<a><h2/></a>", position=db.text.index("<h1/>"))
        db.insert("<x><d/><d/></x>", position=db.text.index("<h2/>"))
        pairs = assert_join_matches_oracle(db, "a", "d")
        assert len(pairs) == 4

    def test_sibling_segments_do_not_join(self):
        db = LazyXMLDatabase()
        db.insert("<r><p1/><p2/></r>")
        db.insert("<a/>", position=db.text.index("<p1/>"))
        db.insert("<d/>", position=db.text.index("<p2/>"))
        assert db.structural_join("a", "d") == []
        assert_join_matches_oracle(db, "a", "d")

    def test_descendant_segment_before_ancestor_in_list(self):
        # Multiple top-level segments with interleaved tags.
        db = LazyXMLDatabase()
        db.insert("<d><q/></d>")
        db.insert("<a><w/></a>")
        db.insert("<d/>", position=db.text.index("<w/>"))
        db.insert("<a/>", position=db.text.index("<q/>"))
        assert_join_matches_oracle(db, "a", "d")

    def test_unknown_tags_yield_empty(self):
        db = LazyXMLDatabase()
        db.insert("<a><d/></a>")
        assert db.structural_join("z", "d") == []
        assert db.structural_join("a", "z") == []
        assert db.structural_join("q", "z") == []

    def test_same_tag_self_join(self):
        db = LazyXMLDatabase()
        db.insert("<a><a><hook/></a></a>")
        db.insert("<a/>", position=db.text.index("<hook/>"))
        pairs = assert_join_matches_oracle(db, "a", "a")
        assert len(pairs) == 3

    def test_paper_example_1(self):
        """Figure 8 scenario: 5 cross pairs, skipped non-containing elements.

        Segment 1 has A-elements; segment 2 (inside one of them) has
        A-elements wrapping segment 3's insertion point; segment 3 holds
        one B-element.  Proposition 3 predicts exactly 5 pairs.
        """
        db = LazyXMLDatabase()
        # segment 1: A4 contains the segment-2 hook, A2/A3 contain A4,
        # A1 and A5 do not contain the hook.
        db.insert("<r><a><q/></a><a><a><a><s2/></a></a></a><a><t/></a></r>")
        hook2 = db.text.index("<s2/>")
        # segment 2: one A does not contain the s3 hook; two nested A's do.
        db.insert(
            "<seg2><a><u/></a><a><a><s3/></a></a><a><v/></a></seg2>",
            position=hook2,
        )
        hook3 = db.text.index("<s3/>")
        db.insert("<seg3><b/></seg3>", position=hook3)
        stats = JoinStatistics()
        pairs = db.structural_join("a", "b", stats=stats)
        got = normalized_join(db, pairs)
        assert got == sorted(db.oracle_join("a", "b"))
        assert len(pairs) == 5
        assert stats.cross_pairs == 5


class TestAxes:
    def test_child_axis_in_segment(self):
        db = LazyXMLDatabase()
        db.insert("<a><d/><x><d/></x></a>")
        pairs = assert_join_matches_oracle(db, "a", "d", axis="child")
        assert len(pairs) == 1

    def test_child_axis_cross_segment(self):
        db = LazyXMLDatabase()
        db.insert("<a><hook/></a>")
        db.insert("<d><d/></d>", position=db.text.index("<hook/>"))
        pairs = assert_join_matches_oracle(db, "a", "d", axis="child")
        assert len(pairs) == 1  # only the segment root <d> is a direct child

    def test_child_axis_grandparent_segment_excluded(self):
        db = LazyXMLDatabase()
        db.insert("<a><h1/></a>")
        db.insert("<w><h2/></w>", position=db.text.index("<h1/>"))
        db.insert("<d/>", position=db.text.index("<h2/>"))
        # d is at level 3; the a element is level 1: not a parent.
        assert db.structural_join("a", "d", axis="child") == []
        assert_join_matches_oracle(db, "a", "d", axis="child")

    def test_invalid_axis_raises(self):
        db = LazyXMLDatabase()
        db.insert("<a/>")
        with pytest.raises(QueryError):
            db.structural_join("a", "a", axis="cousin")

    def test_invalid_branch_strategy_raises(self):
        # Lazy-Join has one configuration: the retired switches are not
        # keywords any more, and no catch-all forwards them.
        db = LazyXMLDatabase()
        db.insert("<a/>")
        for switch in ("branch_strategy", "optimize_push", "trim_top"):
            with pytest.raises(TypeError):
                db.structural_join("a", "a", **{switch: "path"})


class TestOptimizationEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_toggles_do_not_change_results(self, seed):
        """What still selects a code path — the memo or the from-scratch
        merge (``stats=``), Lazy-Join or STD — never changes the answer."""
        rnd = random.Random(seed)
        db = LazyXMLDatabase()
        config = JoinMixConfig(
            n_segments=rnd.randint(5, 20),
            shape=rnd.choice(["nested", "balanced"]),
            wrappers=rnd.randint(0, 3),
            in_blocks_root=rnd.randint(0, 4),
            cross_d_per_segment=rnd.randint(1, 2),
        )
        build_join_mix(db, config)
        for axis in ("descendant", "child"):
            memo = db.structural_join("a", "d", axis)
            scratch = db.structural_join("a", "d", axis, stats=JoinStatistics())
            std = std_join(db, "a", "d", axis)
            assert memo == scratch
            assert normalized_join(db, memo) == normalized_join(db, std)

    def test_optimized_pushes_fewer_elements(self):
        """The push filter (Section 4.2 (i)) stacks only the A-elements that
        contain a child insertion point, not every A-element of a stacked
        segment."""
        db = LazyXMLDatabase()
        build_join_mix(
            db,
            JoinMixConfig(
                n_segments=12, shape="nested", wrappers=1, in_blocks_root=5
            ),
        )
        on = JoinStatistics()
        db.structural_join("a", "d", stats=on)
        tid_a, tid_d = db.log.tags.tid_of("a"), db.log.tags.tid_of("d")
        a_sids = db.log.taglist.counts(tid_a).keys()
        stacked = {
            sid
            for node in db.log.taglist.nodes(tid_d)
            for sid in node.path[:-1]
            if sid in a_sids
        }
        unfiltered = sum(len(db.index.block(sid).tag(tid_a)) for sid in stacked)
        assert 0 < on.elements_pushed < unfiltered


class TestJoinMixConformance:
    @pytest.mark.parametrize("shape", ["nested", "balanced"])
    @pytest.mark.parametrize("fraction", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_sweep_configs_match_oracle(self, shape, fraction):
        config = sweep_configs(14, shape, [fraction])[0]
        db = LazyXMLDatabase()
        info = build_join_mix(db, config)
        stats = JoinStatistics()
        pairs = db.structural_join("a", "d", stats=stats)
        assert normalized_join(db, pairs) == sorted(db.oracle_join("a", "d"))
        assert len(pairs) == info.expected_total
        assert stats.cross_pairs == info.expected_cross
        assert stats.in_segment_pairs == info.expected_in

    def test_sweep_holds_totals_constant(self):
        configs = sweep_configs(12, "nested", [0.0, 0.5, 1.0])
        totals, a_counts, d_counts = set(), set(), set()
        for config in configs:
            db = LazyXMLDatabase()
            info = build_join_mix(db, config)
            totals.add(info.expected_total)
            a_counts.add(info.a_elements)
            d_counts.add(info.d_elements)
        assert len(totals) == 1
        assert len(a_counts) == 1
        assert len(d_counts) == 1


class TestLSMode:
    def test_join_requires_prepare(self):
        db = LazyXMLDatabase(mode="static")
        db.insert("<a><d/></a>")
        with pytest.raises(QueryError):
            db.structural_join("a", "d")

    def test_join_after_prepare(self):
        db = LazyXMLDatabase(mode="static")
        db.insert("<a><hook/></a>")
        db.insert("<d/>", position=db.text.index("<hook/>"))
        db.prepare_for_query()
        assert_join_matches_oracle(db, "a", "d")

    def test_ld_and_ls_agree(self):
        config = JoinMixConfig(n_segments=10, shape="balanced")
        ld, ls = LazyXMLDatabase(), LazyXMLDatabase(mode="static")
        build_join_mix(ld, config)
        build_join_mix(ls, config)
        ls.prepare_for_query()
        ld_pairs = sorted(ld.structural_join("a", "d"))
        ls_pairs = sorted(ls.structural_join("a", "d"))
        assert ld_pairs == ls_pairs

    def test_std_also_requires_prepare(self):
        db = LazyXMLDatabase(mode="static")
        db.insert("<a><d/></a>")
        with pytest.raises(QueryError):
            std_join(db, "a", "d")


class TestAlgorithmsAgree:
    @pytest.mark.parametrize("shape", ["nested", "balanced"])
    def test_lazy_std_merge_same_pairs(self, shape):
        db = LazyXMLDatabase()
        build_join_mix(db, JoinMixConfig(n_segments=15, shape=shape))
        lazy = normalized_join(db, db.structural_join("a", "d"))
        std = normalized_join(db, std_join(db, "a", "d"))
        merge = normalized_join(db, merge_join_records(db, "a", "d"))
        assert lazy == std == merge

    def test_bad_algorithm_rejected(self):
        """No keyword picks the algorithm: the STD baseline is
        ``std_join``, and a stray ``algorithm=`` is refused, not ignored."""
        db = LazyXMLDatabase()
        db.insert("<a/>")
        for algorithm in ("std", "quantum"):
            with pytest.raises(TypeError):
                db.structural_join("a", "a", algorithm=algorithm)

    def test_stats_cross_fraction_property(self):
        stats = JoinStatistics(cross_pairs=3, in_segment_pairs=1)
        assert stats.pairs == 4
        assert stats.cross_fraction == 0.75
        assert JoinStatistics().cross_fraction == 0.0


class TestSegmentSkipping:
    def test_d_only_segment_with_empty_stack_is_skipped(self):
        """Section 5.3: segments failing Proposition 3(1) cost nothing."""
        db = LazyXMLDatabase()
        db.insert("<r><p1/><p2/></r>")
        db.insert("<seg><d/><d/></seg>", position=db.text.index("<p1/>"))
        db.insert("<a><d/></a>", position=db.text.index("<p2/>"))
        stats = JoinStatistics()
        pairs = db.structural_join("a", "d", stats=stats)
        assert len(pairs) == 1  # only the in-segment pair
        # The d-only <seg> segment fails Prop 3(1): skipped without access.
        assert stats.segments_skipped >= 1

    def test_skipping_does_not_lose_pairs(self):
        db = LazyXMLDatabase()
        build_join_mix(db, JoinMixConfig(n_segments=18, shape="nested",
                                         in_blocks_per_segment=1))
        from tests.helpers import assert_join_matches_oracle
        assert_join_matches_oracle(db, "a", "d")
