"""Tests for join cardinality estimation from the update log alone.

:meth:`~repro.twig.summary.PathSummary.edge` estimates an edge's join
output from tag-list counts and stored paths — no element-index access,
no join execution.  ``est_pairs`` must be a sound upper bound (the planner
prunes on 0 and budgets on the bound); ``est_pairs / (|A|·|D|)`` is the
selectivity in [0, 1] the planners rank edges by.
"""

from __future__ import annotations

import random

import pytest

from repro.core.database import LazyXMLDatabase
from repro.workloads.join_mix import JoinMixConfig, build_join_mix, sweep_configs
from repro.workloads.scenarios import registration_stream


def join_upper_bound(db, tag_a: str, tag_d: str) -> int:
    return db.path_summary.edge(tag_a, tag_d, "descendant").est_pairs


def join_selectivity(db, tag_a: str, tag_d: str) -> float:
    edge = db.path_summary.edge(tag_a, tag_d, "descendant")
    if not edge.a_total or not edge.d_total:
        return 0.0
    return edge.est_pairs / (edge.a_total * edge.d_total)


class TestUpperBound:
    def test_unknown_tags_zero(self):
        db = LazyXMLDatabase()
        db.insert("<a/>")
        assert join_upper_bound(db, "a", "zz") == 0
        assert join_upper_bound(db, "zz", "a") == 0

    def test_zero_guarantees_empty(self):
        db = LazyXMLDatabase()
        db.insert("<r><a/></r>")
        db.insert("<d/>")  # a sibling top-level segment: nothing to join
        assert join_upper_bound(db, "a", "d") == 0
        assert not db.path_summary.edge("a", "d", "descendant").feasible
        assert db.structural_join("a", "d") == []

    @pytest.mark.parametrize("shape", ["nested", "balanced"])
    @pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
    def test_bound_dominates_actual_on_mixes(self, shape, fraction):
        config = sweep_configs(15, shape, [fraction])[0]
        db = LazyXMLDatabase(keep_text=False)
        build_join_mix(db, config)
        bound = join_upper_bound(db, "a", "d")
        actual = len(db.structural_join("a", "d"))
        assert actual <= bound

    @pytest.mark.parametrize("seed", range(5))
    def test_bound_dominates_on_random_configs(self, seed):
        rnd = random.Random(seed)
        db = LazyXMLDatabase(keep_text=False)
        build_join_mix(
            db,
            JoinMixConfig(
                n_segments=rnd.randint(4, 15),
                shape=rnd.choice(["nested", "balanced"]),
                wrappers=rnd.randint(0, 2),
                in_blocks_per_segment=rnd.randint(0, 2),
                in_blocks_root=rnd.randint(0, 3),
            ),
        )
        for pair in [("a", "d"), ("d", "a"), ("seg", "d"), ("a", "a")]:
            bound = join_upper_bound(db, *pair)
            actual = len(db.structural_join(*pair))
            assert actual <= bound, pair

    def test_bound_on_real_stream(self):
        db = LazyXMLDatabase()
        for fragment in registration_stream(10):
            db.insert(fragment)
        for pair in [
            ("registration", "interest"),
            ("preferences", "interest"),
            ("contact", "city"),
            ("user", "phone"),
        ]:
            assert len(db.structural_join(*pair)) <= join_upper_bound(db, *pair)

    def test_exact_when_ancestor_is_segment_root(self):
        # Segment roots span their whole segment: the bound is tight.
        db = LazyXMLDatabase()
        db.insert("<a><d/><d/><h/></a>")
        db.insert("<x><d/></x>", position=db.text.index("<h/>"))
        assert join_upper_bound(db, "a", "d") == 3
        assert len(db.structural_join("a", "d")) == 3

    def test_works_in_static_mode(self):
        db = LazyXMLDatabase(mode="static")
        for fragment in registration_stream(4):
            db.insert(fragment)
        db.prepare_for_query()
        bound = join_upper_bound(db, "registration", "interest")
        assert 0 < len(db.structural_join("registration", "interest")) <= bound


class TestSelectivityHint:
    def test_range(self):
        db = LazyXMLDatabase()
        for fragment in registration_stream(6):
            db.insert(fragment)
        hint = join_selectivity(db, "registration", "interest")
        assert 0.0 < hint <= 1.0

    def test_zero_for_unknown(self):
        db = LazyXMLDatabase()
        db.insert("<a/>")
        assert join_selectivity(db, "a", "zz") == 0.0

    def test_disjoint_tags_lower_than_nested(self):
        db = LazyXMLDatabase()
        db.insert("<r><a><d/></a><b/><b/><b/></r>")
        db.insert("<d/>")  # top-level, joins nothing with b
        nested = join_selectivity(db, "a", "d")
        disjoint = join_selectivity(db, "b", "d")
        assert disjoint <= nested
