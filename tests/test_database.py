"""End-to-end tests for the LazyXMLDatabase facade."""

from __future__ import annotations

import pytest

from tests.helpers import assert_join_matches_oracle, count_for
from repro.core.database import LazyXMLDatabase
from repro.errors import (
    InvalidSegmentError,
    ReproError,
    XMLSyntaxError,
)
from repro.workloads.scenarios import registration_stream


class TestInsert:
    def test_first_insert_sets_text(self):
        db = LazyXMLDatabase()
        receipt = db.insert("<a><b/></a>")
        assert db.text == "<a><b/></a>"
        assert receipt.sid == 1
        assert db.segment_count == 1
        assert db.element_count == 2

    def test_default_position_appends(self):
        db = LazyXMLDatabase()
        db.insert("<a/>")
        db.insert("<b/>")
        assert db.text == "<a/><b/>"

    def test_nested_insert_updates_text(self):
        db = LazyXMLDatabase()
        db.insert("<a><b/></a>")
        db.insert("<c/>", position=3)
        assert db.text == "<a><c/><b/></a>"
        db.check_invariants()

    def test_malformed_fragment_rejected_before_mutation(self):
        db = LazyXMLDatabase()
        db.insert("<a/>")
        with pytest.raises(XMLSyntaxError):
            db.insert("<oops>", position=0)
        assert db.text == "<a/>"
        assert db.segment_count == 1

    def test_receipt_parentage(self):
        db = LazyXMLDatabase()
        outer = db.insert("<a><b/></a>")
        inner = db.insert("<c/>", position=3)
        assert inner.parent_sid == outer.sid
        assert inner.lp == 3

    def test_levels_absolute_across_segments(self):
        db = LazyXMLDatabase()
        db.insert("<a><b/></a>")
        db.insert("<c><e/></c>", position=db.text.index("<b/>"))
        tid_e = db.log.tags.tid_of("e")
        sid = 2
        (record,) = db.index.block(sid).tag(tid_e)
        assert record.level == 3  # a(1) > c(2) > e(3)

    def test_validate_full_accepts_good_insert(self):
        """Every insert is checked; one between tokens passes."""
        db = LazyXMLDatabase()
        db.insert("<a><b/></a>")
        db.insert("<c/>", position=3)
        assert db.text == "<a><c/><b/></a>"

    def test_validate_full_rejects_tag_splitting(self):
        db = LazyXMLDatabase()
        db.insert("<a><b/></a>")
        with pytest.raises(InvalidSegmentError):
            db.insert("<c/>", position=1)  # inside "<a"
        assert db.text == "<a><b/></a>"
        assert db.segment_count == 1

    def test_out_of_bounds_position(self):
        db = LazyXMLDatabase()
        db.insert("<a/>")
        with pytest.raises(InvalidSegmentError):
            db.insert("<b/>", position=99)


class TestRemove:
    def build(self):
        db = LazyXMLDatabase()
        db.insert("<a><b/><c/></a>")
        db.insert("<x><y/></x>", position=db.text.index("<c/>"))
        return db

    def test_remove_whole_segment(self):
        db = self.build()
        node = db.log.node(2)
        outcome = db.remove(node.gp, node.length)
        assert outcome.report.removed_sids == [2]
        assert outcome.elements_removed == 2
        assert db.text == "<a><b/><c/></a>"
        db.check_invariants()
        assert_join_matches_oracle(db, "a", "c")

    def test_remove_segment_convenience(self):
        db = self.build()
        db.remove_segment(2)
        assert db.text == "<a><b/><c/></a>"

    def test_remove_inner_element_of_segment(self):
        db = self.build()
        pos = db.text.index("<y/>")
        outcome = db.remove(pos, 4)
        assert outcome.elements_removed == 1
        assert db.text == "<a><b/><x></x><c/></a>"
        db.check_invariants()
        # x survives with its record; joins still correct on remaining tags
        assert_join_matches_oracle(db, "a", "x")

    def test_remove_updates_taglist_counts(self):
        db = self.build()
        tid_y = db.log.tags.tid_of("y")
        pos = db.text.index("<y/>")
        db.remove(pos, 4)
        assert count_for(db.log.taglist, tid_y, 2) == 0

    def test_remove_element_from_first_segment(self):
        db = self.build()
        pos = db.text.index("<b/>")
        db.remove(pos, 4)
        assert db.text == "<a><x><y/></x><c/></a>"
        assert_join_matches_oracle(db, "a", "c")

    def test_remove_everything(self):
        db = self.build()
        db.remove(0, db.document_length)
        assert db.text == ""
        assert db.segment_count == 0
        assert db.element_count == 0

    def test_element_count_tracks_removals(self):
        db = self.build()
        before = db.element_count
        db.remove_segment(2)
        assert db.element_count == before - 2


class TestGlobalSpans:
    def test_global_span_matches_text(self):
        db = LazyXMLDatabase()
        db.insert("<a><b/></a>")
        db.insert("<c><e/></c>", position=3)
        for tag in ("a", "b", "c", "e"):
            for element in db.global_elements(tag):
                snippet = db.text[element.start : element.end]
                assert snippet.startswith(f"<{tag}")
                assert snippet.endswith(">")

    def test_global_elements_sorted(self):
        db = LazyXMLDatabase()
        for frag in registration_stream(5):
            db.insert(frag)
        elements = db.global_elements("interest")
        starts = [e.start for e in elements]
        assert starts == sorted(starts)

    def test_global_elements_unknown_tag(self):
        db = LazyXMLDatabase()
        db.insert("<a/>")
        assert db.global_elements("nope") == []

    def test_global_span_shifts_with_updates(self):
        db = LazyXMLDatabase()
        db.insert("<a><b/></a>")
        tid_b = db.log.tags.tid_of("b")
        (b_record,) = db.index.block(1).tag(tid_b)
        span_before = db.global_span(b_record)
        db.insert("<c/>", position=3)  # before <b/>
        span_after = db.global_span(b_record)
        assert span_after[0] == span_before[0] + 4
        # the record itself (local label) never changed
        assert list(db.index.block(1).tag(tid_b)) == [b_record]


class TestScenarioStreams:
    def test_registration_stream_end_to_end(self):
        db = LazyXMLDatabase()
        for frag in registration_stream(15):
            db.insert(frag)
        db.check_invariants()
        assert db.segment_count == 15
        assert_join_matches_oracle(db, "registration", "interest")
        assert_join_matches_oracle(db, "contact", "city")
        assert_join_matches_oracle(db, "user", "first", axis="child")

    def test_mixed_inserts_and_removals_random(self, rng):
        db = LazyXMLDatabase()
        fragments = list(registration_stream(10))
        sids = []
        for frag in fragments:
            sids.append(db.insert(frag).sid)
        for sid in rng.sample(sids, 4):
            db.remove_segment(sid)
        db.check_invariants()
        assert db.segment_count == 6
        assert_join_matches_oracle(db, "registration", "interest")
        # insert more after removals
        for frag in registration_stream(3, seed=99):
            db.insert(frag)
        assert_join_matches_oracle(db, "preferences", "interest")


class TestStatsAndErrors:
    def test_stats_snapshot(self):
        db = LazyXMLDatabase()
        db.insert("<a><b/></a>")
        stats = db.stats()
        assert stats.segments == 1
        assert stats.total_bytes > 0

    def test_mode_property(self):
        assert LazyXMLDatabase().mode == "dynamic"
        assert LazyXMLDatabase(mode="static").mode == "static"

    def test_errors_share_base_class(self):
        db = LazyXMLDatabase()
        with pytest.raises(ReproError):
            db.insert("<bad", position=0)

    def test_oracle_join_empty_database(self):
        db = LazyXMLDatabase()
        assert db.oracle_join("a", "b") == []

    def test_document_length_property(self):
        db = LazyXMLDatabase()
        db.insert("<a/>")
        assert db.document_length == 4


class TestExceptionSafety:
    """A failed insert/remove must leave every structure untouched."""

    def populated(self):
        db = LazyXMLDatabase()
        for fragment in registration_stream(3):
            db.insert(fragment)
        return db

    def fingerprint(self, db):
        from repro.storage import dumps

        return dumps(db)

    def test_malformed_fragment_mutates_nothing(self):
        db = self.populated()
        before = self.fingerprint(db)
        with pytest.raises(XMLSyntaxError):
            db.insert("<open><unclosed></open>", position=0)
        assert self.fingerprint(db) == before
        db.check_invariants()

    def test_out_of_range_insert_position_mutates_nothing(self):
        db = self.populated()
        before = self.fingerprint(db)
        for position in (-1, db.document_length + 1, 10**9):
            with pytest.raises(InvalidSegmentError):
                db.insert("<x/>", position=position)
        assert self.fingerprint(db) == before
        db.check_invariants()

    def test_failed_full_validation_mutates_nothing(self):
        db = self.populated()
        before = self.fingerprint(db)
        with pytest.raises(InvalidSegmentError):
            # Splicing this at position 1 splits the first tag: malformed.
            db.insert("<x/>", position=1)
        assert self.fingerprint(db) == before
        db.check_invariants()

    def test_invalid_remove_span_mutates_nothing(self):
        db = self.populated()
        before = self.fingerprint(db)
        for position, length in [(0, 0), (0, -5), (-1, 3), (0, db.document_length + 1)]:
            with pytest.raises(InvalidSegmentError):
                db.remove(position, length)
        assert self.fingerprint(db) == before
        db.check_invariants()

    def test_midway_index_failure_rolls_back_insert(self, monkeypatch):
        """Force the element-index step to explode after the update log has
        accepted the segment; the rollback must restore every structure."""
        db = self.populated()
        before = self.fingerprint(db)

        def explode(*args, **kwargs):
            raise RuntimeError("injected index failure")

        monkeypatch.setattr(db.index, "insert_segment", explode)
        with pytest.raises(RuntimeError, match="injected"):
            db.insert("<registration><user>x</user></registration>")
        monkeypatch.undo()
        # The burned sid is the one acceptable difference: segment ids are
        # never reused, so the allocator does not rewind on rollback.
        import re as _re

        strip_sid = lambda fp: _re.sub(r'"next_sid": \d+', '"next_sid": _', fp)
        assert strip_sid(self.fingerprint(db)) == strip_sid(before)
        db.check_invariants()
        # The database stays fully usable after the rollback.
        db.insert("<registration><user>y</user></registration>")
        db.check_invariants()
        assert_join_matches_oracle(db, "registration", "user")

    def test_repack_of_unknown_segment_mutates_nothing(self):
        db = self.populated()
        before = self.fingerprint(db)
        with pytest.raises(ReproError):
            db.repack(999)
        with pytest.raises(InvalidSegmentError):
            db.repack(0)  # dummy root
        assert self.fingerprint(db) == before
        db.check_invariants()


class TestRemoveSpanValidation:
    """Structurally invalid removal spans are refused with a typed error.

    Regression tests: both shapes used to succeed silently, leaving a
    corrupt text mirror / unbalanced tags behind.
    """

    def fingerprint(self, db):
        from repro.storage import dumps

        return dumps(db)

    def test_mid_tag_span_rejected(self):
        db = LazyXMLDatabase()
        db.insert("<a><b>hello</b></a>")
        before = self.fingerprint(db)
        with pytest.raises(InvalidSegmentError, match="mid-tag"):
            db.remove(1, 3)  # removes "a><" — tags no longer balance
        assert self.fingerprint(db) == before
        assert db.text == "<a><b>hello</b></a>"
        db.check_invariants()
        # a well-formed removal at the same position granularity still works
        db.remove(db.text.index("<b>"), len("<b>hello</b>"))
        assert db.text == "<a></a>"

    def test_unbalanced_span_inside_one_segment_rejected(self):
        db = LazyXMLDatabase()
        db.insert("<a><b>x</b><c>y</c></a>")
        with pytest.raises(InvalidSegmentError, match="mid-tag"):
            # covers "</b><c>y" — element boundaries don't balance
            db.remove(db.text.index("</b>"), len("</b><c>y"))
        db.check_invariants()

    def test_segment_boundary_crossing_rejected(self):
        db = LazyXMLDatabase()
        db.insert("<a>one</a>")
        db.insert("<b>two</b>")
        before = self.fingerprint(db)
        with pytest.raises(InvalidSegmentError, match="crosses the boundary"):
            db.remove(5, 8)  # tail of segment 1 + head of segment 2
        assert self.fingerprint(db) == before
        db.check_invariants()

    def test_nested_segment_boundary_crossing_rejected(self):
        db = LazyXMLDatabase()
        db.insert("<a><b>hello</b></a>")
        receipt = db.insert("<n>x</n>", db.text.index("hello"))
        node = db.log.node(receipt.sid)
        with pytest.raises(InvalidSegmentError, match="crosses the boundary"):
            # starts inside the nested segment, ends past it
            db.remove(node.gp + 1, node.length)
        db.check_invariants()

    def test_whole_segment_spans_still_allowed(self):
        db = LazyXMLDatabase()
        db.insert("<a>one</a>")
        db.insert("<b>two</b>")
        db.remove(0, 10)  # exactly segment 1
        assert db.text == "<b>two</b>"
        db.check_invariants()

    def test_multi_segment_exact_cover_still_allowed(self):
        db = LazyXMLDatabase()
        db.insert("<a>one</a>")
        db.insert("<b>two</b>")
        db.insert("<c>three</c>")
        db.remove(0, 20)  # exactly segments 1+2
        assert db.text == "<c>three</c>"
        db.check_invariants()



def test_partial_removes_in_segments_sharing_a_start():
    """Cutting a segment's head back to its first child's start leaves the
    two with one global position; tag-list maintenance must still find
    each by sid (it used to bisect on gp alone and raise mid-removal)."""
    db = LazyXMLDatabase()
    db.insert("<r><x/></r>")
    outer = db.insert("<!--c--><a><a/></a>", 3)
    inner = db.insert("<a><a/></a>", 3 + len("<!--c-->"))
    db.remove(3, len("<!--c-->"))
    assert db.log.node(outer.sid).gp == db.log.node(inner.sid).gp
    db.remove(db.text.index("<a/>"), 4)  # an element of the inner segment
    db.remove(db.text.rindex("<a/>"), 4)  # and one of the outer
    assert db.text == "<r><a></a><a></a><x/></r>"
    db.check_invariants()
    assert_join_matches_oracle(db, "r", "a")
