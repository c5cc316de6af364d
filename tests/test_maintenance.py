"""Tests for segment packing and database compaction."""

from __future__ import annotations

import re

import pytest

from tests.helpers import assert_join_matches_oracle
from repro.core.database import LazyXMLDatabase
from repro.errors import InvalidSegmentError
from repro.workloads.join_mix import JoinMixConfig, build_join_mix
from repro.workloads.scenarios import registration_stream


def nested_db():
    db = LazyXMLDatabase()
    db.insert("<a><x/><h/></a>")
    db.insert("<b><y/><h2/></b>", position=db.text.index("<h/>"))
    db.insert("<c><z/></c>", position=db.text.index("<h2/>"))
    return db


class TestRepackSegment:
    def test_collapses_subtree(self):
        db = nested_db()
        result = db.repack(1)
        assert db.segment_count == 1
        assert result.segments_before == 3
        assert result.segments_after == 1
        assert result.elements_relabelled == db.element_count

    def test_text_unchanged(self):
        db = nested_db()
        text_before = db.text
        db.repack(1)
        assert db.text == text_before

    def test_joins_identical_after_repack(self):
        db = nested_db()
        expectations = {
            pair: sorted(db.oracle_join(*pair))
            for pair in [("a", "c"), ("a", "z"), ("b", "z"), ("a", "y")]
        }
        db.repack(1)
        db.check_invariants()
        for (tag_a, tag_d), want in expectations.items():
            got = sorted(
                (db.global_span(x), db.global_span(y))
                for x, y in db.structural_join(tag_a, tag_d)
            )
            assert got == want, (tag_a, tag_d)

    def test_repack_inner_subtree_only(self):
        db = nested_db()
        db.repack(2)  # collapse b's subtree, keep a separate
        assert db.segment_count == 2
        db.check_invariants()
        assert_join_matches_oracle(db, "a", "z")
        assert_join_matches_oracle(db, "b", "z")

    def test_repack_flattens_tombstones(self):
        db = nested_db()
        pos = db.text.index("<y/>")
        db.remove(pos, 4)  # partial removal -> tombstone in segment 2
        assert db.log.node(2).tombstones()
        db.repack(1)
        (new_sid,) = [n.sid for n in db.log.ertree.root.children]
        assert not db.log.node(new_sid).tombstones()
        assert_join_matches_oracle(db, "a", "z")

    def test_repack_dummy_root_rejected(self):
        db = nested_db()
        with pytest.raises(InvalidSegmentError):
            db.repack(0)

    def test_new_labels_fresh_segment(self):
        db = nested_db()
        result = db.repack(1)
        new_sid = result.new_sids[0]
        tid_z = db.log.tags.tid_of("z")
        (record,) = db.index.block(new_sid).tag(tid_z)
        node = db.log.node(new_sid)
        span = db.global_span(record)
        assert db.text[span[0] : span[1]] == "<z/>"
        assert record.level == 4  # absolute level preserved (a>b>c>z)

    def test_updates_after_repack(self):
        db = nested_db()
        db.repack(1)
        db.insert("<d/>", position=db.text.index("<z/>"))
        db.check_invariants()
        assert_join_matches_oracle(db, "a", "d")
        assert_join_matches_oracle(db, "c", "d")


class TestCompactDatabase:
    def test_one_segment_per_top_level(self):
        db = LazyXMLDatabase()
        for fragment in registration_stream(6):
            db.insert(fragment)
        # nested amendments create extra segments
        for _ in range(3):
            match = re.search("<preferences>", db.text)
            db.insert('<interest topic="x"/>', match.end())
        assert db.segment_count == 9
        result = db.compact()
        assert db.segment_count == 6
        assert result.segments_before == 9
        db.check_invariants()
        assert_join_matches_oracle(db, "registration", "interest")

    def test_compact_shrinks_update_log(self):
        db = LazyXMLDatabase()
        config = JoinMixConfig(n_segments=25, shape="nested")
        build_join_mix(db, config)
        before = db.stats().total_bytes
        db.compact()
        after = db.stats().total_bytes
        assert after < before
        assert db.segment_count < 25

    def test_compact_preserves_joins(self):
        db = LazyXMLDatabase()
        build_join_mix(db, JoinMixConfig(n_segments=12, shape="balanced"))
        want = sorted(db.oracle_join("a", "d"))
        db.compact()
        got = sorted(
            (db.global_span(x), db.global_span(y))
            for x, y in db.structural_join("a", "d")
        )
        assert got == want

    def test_compact_empty_database(self):
        db = LazyXMLDatabase()
        result = db.compact()
        assert result.segments_before == result.segments_after == 0

    def test_compact_then_new_updates(self, rng):
        db = LazyXMLDatabase()
        for fragment in registration_stream(5):
            db.insert(fragment)
        db.compact()
        for fragment in registration_stream(3, seed=5):
            db.insert(fragment)
        match = re.search("<preferences>", db.text)
        db.insert('<interest topic="post-compact"/>', match.end())
        db.check_invariants()
        assert_join_matches_oracle(db, "registration", "interest")
        assert_join_matches_oracle(db, "preferences", "interest", axis="child")
