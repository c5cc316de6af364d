"""Tests for the composed update log (ER-tree + tag-list, LD/LS modes)."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.btree import BPlusTree
from repro.core.database import LazyXMLDatabase
from repro.core.update_log import UpdateLog
from repro.errors import QueryError
from repro.joins.stack_tree import std_join
from tests.helpers import count_for, tag_counts


class TestConstruction:
    def test_default_mode_dynamic(self):
        assert UpdateLog().mode == "dynamic"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            UpdateLog(mode="bogus")

    def test_empty_log_state(self):
        log = UpdateLog()
        assert log.segment_count == 0
        assert log.document_length == 0
        assert log.query_ready
        log.check_invariants()


class TestInsertion:
    def test_receipt_fields(self):
        log = UpdateLog()
        receipt = log.insert_segment(0, 20, tag_counts(log, a=2, b=1))
        assert receipt.sid == 1
        assert receipt.parent_sid == 0
        assert receipt.gp == 0 and receipt.length == 20 and receipt.lp == 0
        assert receipt.path == (0, 1)

    def test_tag_counts_recorded(self):
        log = UpdateLog()
        receipt = log.insert_segment(0, 20, tag_counts(log, a=2, b=1))
        tid_a = log.tags.tid_of("a")
        assert count_for(log.taglist, tid_a, receipt.sid) == 2

    def test_nested_receipt(self):
        log = UpdateLog()
        outer = log.insert_segment(0, 50, tag_counts(log, a=1))
        inner = log.insert_segment(10, 8, tag_counts(log, a=1))
        assert inner.parent_sid == outer.sid
        assert inner.lp == 10
        assert log.node(outer.sid).length == 58

    def test_sbtree_lookup_after_insert(self):
        log = UpdateLog()
        receipt = log.insert_segment(0, 10, tag_counts(log, x=1))
        assert log.node(receipt.sid).sid == receipt.sid

    def test_segment_count_and_length(self):
        log = UpdateLog()
        for _ in range(5):
            log.insert_segment(log.document_length, 10, tag_counts(log, x=1))
        assert log.segment_count == 5
        assert log.document_length == 50
        log.check_invariants()


class TestRemoval:
    def build(self):
        log = UpdateLog()
        outer = log.insert_segment(0, 30, tag_counts(log, a=3))
        inner = log.insert_segment(10, 10, tag_counts(log, a=1, b=2))
        return log, outer, inner

    def test_full_removal_report(self):
        log, outer, inner = self.build()
        report = log.remove_span(10, 10)
        assert report.removed_sids == [inner.sid]
        assert log.segment_count == 1

    def test_taglist_not_touched_until_counts_applied(self):
        log, outer, inner = self.build()
        tid_b = log.tags.tid_of("b")
        log.remove_span(10, 10)
        # Section 3.3: tag-list updates only after element-index deletion.
        assert count_for(log.taglist, tid_b, inner.sid) == 2

    def test_apply_removal_counts_full(self):
        log, outer, inner = self.build()
        report = log.remove_span(10, 10)
        tid_a, tid_b = log.tags.tid_of("a"), log.tags.tid_of("b")
        log.apply_removal_counts(
            {inner.sid: Counter({tid_a: 1, tid_b: 2})}, report
        )
        assert count_for(log.taglist, tid_a, inner.sid) == 0
        assert count_for(log.taglist, tid_b, inner.sid) == 0
        assert count_for(log.taglist, tid_a, outer.sid) == 3

    def test_apply_removal_counts_partial(self):
        log, outer, inner = self.build()
        report = log.remove_span(2, 3)  # outer's own chars only
        tid_a = log.tags.tid_of("a")
        log.apply_removal_counts({outer.sid: Counter({tid_a: 1})}, report)
        assert count_for(log.taglist, tid_a, outer.sid) == 2

    def test_remove_shrinks_document(self):
        log, *_ = self.build()
        log.remove_span(0, 40)
        assert log.document_length == 0
        assert log.segment_count == 0


class TestStaticMode:
    def test_not_query_ready_until_prepared(self):
        log = UpdateLog(mode="static")
        log.insert_segment(0, 10, tag_counts(log, a=1))
        assert not log.query_ready
        log.prepare_for_query()
        assert log.query_ready

    def test_prepare_builds_sbtree(self):
        log = UpdateLog(mode="static")
        receipt = log.insert_segment(0, 10, tag_counts(log, a=1))
        log.prepare_for_query()
        assert log.node(receipt.sid).sid == receipt.sid

    def test_prepare_sorts_taglist(self):
        log = UpdateLog(mode="static")
        for _ in range(5):
            log.insert_segment(0, 10, tag_counts(log, a=1))  # prepends: reverse gp order
        log.prepare_for_query()
        tid = log.tags.tid_of("a")
        gps = [node.gp for node in log.taglist.nodes(tid)]
        assert gps == sorted(gps)

    def test_updates_after_prepare_restale(self):
        log = UpdateLog(mode="static")
        log.insert_segment(0, 10, tag_counts(log, a=1))
        log.prepare_for_query()
        log.insert_segment(0, 10, tag_counts(log, a=1))
        assert not log.query_ready

    def test_mark_stale_roundtrip(self):
        log = UpdateLog(mode="static")
        for _ in range(4):
            log.insert_segment(log.document_length, 10, tag_counts(log, a=1))
        log.prepare_for_query()
        log.taglist.unsort(random.Random(1))
        assert not log.query_ready
        log.prepare_for_query()
        tid = log.tags.tid_of("a")
        gps = [node.gp for node in log.taglist.nodes(tid)]
        assert gps == sorted(gps)

    def test_insert_without_elements_defers_nothing(self):
        log = UpdateLog(mode="static")
        log.insert_segment(0, 10, {})
        assert log.query_ready

    def test_remove_alone_defers_nothing(self):
        db = LazyXMLDatabase(mode="static")
        receipt = db.insert("<a><b/></a>")
        db.insert("<a/>")
        db.prepare_for_query()
        db.remove_segment(receipt.sid)
        assert db.log.query_ready
        db.check_invariants()

    def test_list_emptied_before_prepare_defers_nothing(self):
        log = UpdateLog(mode="static")
        receipt = log.insert_segment(0, 10, tag_counts(log, a=1))
        assert not log.query_ready
        report = log.remove_span(0, 10)
        log.apply_removal_counts(
            {receipt.sid: Counter({log.tags.tid_of("a"): 1})}, report
        )
        assert log.query_ready
        log.check_invariants()

    def test_prepare_noop_in_dynamic(self):
        log = UpdateLog()
        log.insert_segment(0, 10, tag_counts(log, a=1))
        log.prepare_for_query()
        assert log.query_ready


class TestStats:
    def test_stats_fields(self):
        log = UpdateLog()
        for _ in range(10):
            log.insert_segment(log.document_length, 10, tag_counts(log, a=1, b=1))
        stats = log.stats()
        assert stats.segments == 10
        assert stats.tag_entries == 20
        assert stats.sbtree_bytes > 0
        assert stats.taglist_bytes > 0
        assert stats.total_bytes == stats.sbtree_bytes + stats.taglist_bytes

    def test_sbtree_bytes_are_a_b_plus_tree_leaf_level(self):
        """The sid map counts what a B+-tree over the sids (order 64, as
        Fig. 11(a) used to build) holds in its leaves, plus the Fig. 2
        records; past one leaf only the interior levels drop out, < 1 %."""
        log = UpdateLog()
        prev = None
        for _ in range(300):
            gp = 0 if prev is None else log.node(prev).gp + 1
            prev = log.insert_segment(gp, 10, tag_counts(log, a=1)).sid
        nodes = list(log.ertree.nodes())
        tree = BPlusTree.bulk_load(sorted((n.sid, n) for n in nodes), order=64)
        btree = tree.approximate_bytes() + sum(
            8 * (4 + len(node.children)) for node in nodes
        )
        assert btree * 0.99 <= log.stats().sbtree_bytes < btree

    def test_taglist_grows_quadratically_when_nested(self):
        # Proposition 1: tag-list is O(T N^2) in the nested worst case.
        def nested_log(n):
            log = UpdateLog()
            prev = None
            for _ in range(n):
                gp = 0 if prev is None else log.node(prev).gp + 1
                prev = log.insert_segment(gp, 10, tag_counts(log, a=1)).sid
            return log.stats().taglist_bytes

        small, large = nested_log(10), nested_log(20)
        # quadratic-ish growth: doubling n should much more than double size
        assert large > small * 3


_ENTRY_POINTS = {
    "path one step": lambda db: db.path_query("a"),
    "path two steps": lambda db: db.path_query("a//b"),
    "twig": lambda db: db.twig_query("a[b]"),
    "lazy join": lambda db: db.structural_join("a", "b"),
    "std join": lambda db: std_join(db, "a", "b"),
    "global elements": lambda db: db.global_elements("a"),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_unprepared_ls_query_raises_one_typed_error(entry):
    db = LazyXMLDatabase(mode="static")
    db.insert("<a><b/></a>")
    db.insert("<a><b/><b/></a>")
    with pytest.raises(QueryError, match="not query-ready"):
        _ENTRY_POINTS[entry](db)
    db.prepare_for_query()
    _ENTRY_POINTS[entry](db)
