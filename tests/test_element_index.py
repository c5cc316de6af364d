"""Tests for the element index: one write-once column block per segment."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import element_index
from repro.core.element_index import ElementIndex, ElementRecord, block_columns


def _write(idx, sid, rows, base_level=0):
    """Write ``(tid, start, end, level)`` rows in any order as sid's block."""
    idx.insert_segment(sid, *block_columns(rows), base_level)


@pytest.fixture
def index():
    idx = ElementIndex()
    # segment 1: tid 0 root spanning [0, 30), two tid-1 children
    _write(idx, 1, [(0, 0, 30, 1), (1, 3, 10, 2), (1, 12, 20, 2)], 0)
    # segment 2 inserted at depth 2: tid 0 root, one tid-1 child
    _write(idx, 2, [(0, 0, 14, 1), (1, 4, 8, 2)], 2)
    return idx


def _tagged(index, tid):
    """Every record of ``tid``, segment by segment."""
    return [r for sid in index.sids() for r in index.block(sid).tag(tid)]


class TestInsertAndLookup:
    def test_insert_writes_the_columns_it_is_given(self):
        """A parse's columns go in as they come: no sort, no counts back."""
        idx = ElementIndex()
        tids, starts, ends, levels = [0, 1, 1], (0, 2, 6), (10, 6, 9), (1, 2, 2)
        assert idx.insert_segment(5, tids, starts, ends, levels, 3) is None
        assert list(idx.block(5).rows()) == [
            (0, 0, 10, 4), (1, 2, 6, 5), (1, 6, 9, 5),
        ]
        idx.insert_segment(6, [], (), (), ())  # no columns, no block
        assert list(idx.sids()) == [5] and idx.journal_position == 1

    def test_len(self, index):
        assert len(index) == 5
        assert sorted(index.sids()) == [1, 2]

    def test_elements_scoped_by_tid_and_sid(self, index):
        view = index.block(1).tag(1)
        assert view.records == (
            ElementRecord(1, 3, 10, 2),
            ElementRecord(1, 12, 20, 2),
        )
        assert list(view) == list(view.records) and view[1] is view.records[1]
        assert (list(view.starts), list(view.ends), list(view.levels)) == (
            [3, 12], [10, 20], [2, 2],
        )

    def test_elements_sorted_by_start(self, index):
        idx = ElementIndex()
        _write(idx, 1, [(0, 20, 25, 2), (0, 0, 30, 1), (0, 5, 9, 2)], 0)
        assert list(idx.block(1).tag(0).starts) == [0, 5, 20]

    def test_rows_are_the_records_in_block_order(self):
        idx = ElementIndex()
        # Equal starts (a repacked token-split document): tid, then end.
        rows = [(1, 4, 9, 2), (0, 4, 9, 2), (0, 4, 6, 3), (2, 0, 12, 1)]
        _write(idx, 1, rows, 0)
        assert list(idx.block(1).rows()) == [
            (2, 0, 12, 1), (0, 4, 6, 3), (0, 4, 9, 2), (1, 4, 9, 2),
        ]
        assert [(r.start, r.end) for r in idx.block(1).tag(0)] == [(4, 6), (4, 9)]
        assert [r.start for r in idx.block(1).tag(None)] == [0, 4, 4, 4]

    def test_base_level_applied(self, index):
        (root,) = index.block(2).tag(0)
        assert root.level == 3  # base 2 + in-segment level 1

    def test_views_are_cut_once_and_on_demand(self, index):
        block = index.block(1)
        assert block._views == {}  # nothing per tag exists until a reader asks
        view = block.tag(1)
        assert block.tag(1) is view and set(block._views) == {1}
        everything = block.tag(None)
        assert [r.start for r in everything] == [0, 3, 12]
        assert everything.starts is block.starts  # the block's own columns
        assert set(block._views) == {1, None}

    def test_one_tag_segment_shares_its_all_tags_view(self):
        idx = ElementIndex()
        _write(idx, 1, [(4, 0, 9, 1), (4, 2, 5, 2)], 0)
        assert idx.block(1).tag(4) is idx.block(1).tag(None)

    def test_all_elements_across_segments(self, index):
        records = _tagged(index, 1)
        assert len(records) == 3
        assert {r.sid for r in records} == {1, 2}

    def test_all_elements_unknown_tid_empty(self, index):
        assert _tagged(index, 9) == []

    def test_count(self, index):
        assert len(index.block(1).tag(1)) == 2
        assert len(index.block(2).tag(1)) == 1
        assert len(index.block(1).tag(7)) == 0

    def test_has_segment_tag(self, index):
        assert index.block(1).tag(0)
        assert not index.block(1).tag(3)
        assert not index.block(99) and not index.block(99).tag(0)

    def test_records_immutable_identity(self, index):
        # (sid, start) uniquely identifies an element.
        seen = set()
        for record in _tagged(index, None):
            key = (record.sid, record.start)
            assert key not in seen
            seen.add(key)
        assert len(seen) == len(index)


class TestRemoveSegment:
    def test_remove_whole_segment(self, index):
        version = index.version(1)
        counts = index.remove_segment(1)
        assert counts == Counter({1: 2, 0: 1})
        assert index.version(1) == version + 1
        assert not index.block(1) and list(index.sids()) == [2]
        # other segment untouched
        assert len(index.block(2).tag(1)) == 1 and len(index) == 2

    def test_remove_with_absent_tids_harmless(self, index):
        counts = index.remove_segment(1)
        assert 7 not in counts and 8 not in counts

    def test_remove_unknown_segment_empty(self, index):
        assert index.remove_segment(99) == Counter()
        assert index.version(99) == 0 and len(index) == 5


class TestRemoveLocalRange:
    def test_elements_fully_inside_removed(self, index):
        before = index.block(1)
        kept = before.tag(1)
        counts = index.remove_local_range(1, 3, 10)
        assert counts == Counter({1: 1})
        assert len(index.block(1).tag(1)) == 1  # [12,20) survives
        # The block was replaced, not edited: a reader's view stands.
        assert index.block(1) is not before and len(kept) == 2
        assert list(before.rows()) == [(0, 0, 30, 1), (1, 3, 10, 2), (1, 12, 20, 2)]

    def test_containing_elements_survive(self, index):
        # Range [5, 8) is inside the [3,10) element: nothing fully inside.
        before, version = index.block(1), index.version(1)
        counts = index.remove_local_range(1, 5, 8)
        assert counts == Counter()
        assert len(index.block(1).tag(1)) == 2
        assert index.block(1) is before and index.version(1) == version

    def test_boundary_exact_span_removed(self, index):
        counts = index.remove_local_range(1, 12, 20)
        assert counts == Counter({1: 1})

    def test_partial_overlap_survives(self, index):
        # Range [15, 25) cuts the [12,20) element: record survives (labels
        # stay order-consistent even if text was clipped).
        counts = index.remove_local_range(1, 15, 25)
        assert counts == Counter()

    def test_multiple_tids(self):
        idx = ElementIndex()
        _write(idx, 1, [(0, 0, 20, 1), (1, 2, 6, 2), (2, 8, 12, 2)], 0)
        counts = idx.remove_local_range(1, 0, 20)
        assert counts == Counter({0: 1, 1: 1, 2: 1})
        assert len(idx) == 0 and list(idx.sids()) == []


class TestAccounting:
    def test_bytes_positive(self, index):
        base = index.approximate_bytes()
        assert base == 8 * 4 * 5 + 8 * 2  # and the journal's two writes
        index.block(1).tag(None)  # record references
        index.block(1).tag(1)  # ... and three columns of its own
        assert index.approximate_bytes() == base + 8 * 3 + 8 * 4 * 2

    def test_invariants(self, index):
        index.check_invariants()
        index.block(1).starts.reverse()
        with pytest.raises(AssertionError):
            index.check_invariants()

    def test_many_segments_scale(self):
        idx = ElementIndex()
        for sid in range(1, 101):
            _write(idx, sid, [(0, 0, 10, 1), (1, 2, 8, 2)], 0)
        assert len(idx) == 200
        idx.check_invariants()
        for sid in range(1, 101, 2):
            idx.remove_segment(sid)
        assert len(idx) == 100
        idx.check_invariants()


class TestWriteJournal:
    def test_every_write_and_only_writes(self, index):
        assert index.journal_position == 2
        assert index.written_since(0) == [1, 2]
        index.remove_local_range(1, 40, 50)  # removes nothing: no write
        index.remove_segment(7)  # holds nothing: no write
        assert index.written_since(2) == []
        index.remove_local_range(1, 3, 10)
        index.remove_segment(2)
        assert index.written_since(2) == [1, 2]
        assert index.journal_position == 4

    def test_trimmed_past_a_position_it_answers_none(self, monkeypatch):
        monkeypatch.setattr(element_index, "JOURNAL_KEPT", 2)
        idx = ElementIndex()
        for sid in range(1, 5):
            _write(idx, sid, [(0, 0, 10, 1)], 0)
        # The fourth write reached twice JOURNAL_KEPT: the oldest two went.
        assert idx.journal_position == 4
        assert idx.written_since(1) is None
        assert idx.written_since(2) == [3, 4]
        assert idx.approximate_bytes() == 8 * 4 * 4 + 8 * 2


def test_version_map_holds_live_segments_only():
    """A removed segment's version counter leaves with its block and
    compiled state (sids never return): 2 000 inserts and removes at 11
    live segments leave the map within the live count plus a constant,
    where it kept one entry per sid ever written."""
    from repro.core.database import LazyXMLDatabase

    db = LazyXMLDatabase()
    for i in range(10):
        db.insert(f"<doc><item>{i}</item></doc>")
    for i in range(1_000):
        position = db.text.index("<item>") if i % 2 else None
        receipt = db.insert("<x><y/></x>", position)
        assert db.segment_count == 11
        db.remove_segment(receipt.sid)
    db.check_invariants()
    assert len(db.index._versions) <= db.segment_count + 2
