"""Tests for the SB-tree role: the sid index the update log answers from.

The paper keeps a B+-tree over sids; here the ER-tree's own ``{sid: node}``
registry serves every point question it was asked (``node``, ``in``,
``len``).  LD keeps the log query-ready after every update; LS defers only
the tag-list sort, so the sid map is live before ``prepare_for_query``.
"""

from __future__ import annotations

import pytest

from repro.core.ertree import ERTree
from repro.core.update_log import UpdateLog
from repro.errors import SegmentNotFoundError
from tests.helpers import tag_counts


class TestDynamic:
    def test_root_registered(self):
        tree = ERTree()
        assert tree.node(0) is tree.root
        assert 0 in tree and len(tree) == 1

    def test_add_registers(self):
        tree = ERTree()
        node = tree.add_segment(0, 10)
        assert tree.node(node.sid) is node
        assert node.sid in tree

    def test_remove_unregisters(self):
        tree = ERTree()
        node = tree.add_segment(0, 10)
        tree.remove_span(0, 10)
        assert node.sid not in tree
        with pytest.raises(SegmentNotFoundError):
            tree.node(node.sid)

    def test_subtree_removal_unregisters_descendants(self):
        tree = ERTree()
        outer = tree.add_segment(0, 20)
        inner = tree.add_segment(5, 5)
        report = tree.remove_span(0, 25)
        assert report.removed == [outer, inner]
        assert outer.sid not in tree and inner.sid not in tree
        assert len(tree) == 1
        tree.check_invariants()

    def test_collapse_reregisters(self):
        tree = ERTree()
        outer = tree.add_segment(0, 20)
        inner = tree.add_segment(5, 5)
        new = tree.collapse_subtree(outer.sid)
        assert outer.sid not in tree and inner.sid not in tree
        assert tree.node(new.sid) is new and len(tree) == 2
        tree.check_invariants()

    def test_never_stale(self):
        log = UpdateLog()
        log.insert_segment(0, 5, tag_counts(log, a=1))
        assert log.query_ready
        log.remove_span(0, 5)
        assert log.query_ready

    def test_lookup_unknown_raises(self):
        log = UpdateLog()
        with pytest.raises(SegmentNotFoundError):
            log.node(99)


class TestStatic:
    def test_updates_keep_stale(self):
        log = UpdateLog(mode="static")
        log.insert_segment(0, 10, tag_counts(log, a=1))
        assert not log.query_ready
        log.insert_segment(0, 10, tag_counts(log, a=1))
        assert not log.query_ready

    def test_rebuild_registers_everything(self):
        log = UpdateLog(mode="static")
        receipts = [log.insert_segment(0, 4, tag_counts(log, a=1)) for _ in range(10)]
        # The sid map is live before the deferred work runs ...
        assert not log.query_ready
        for receipt in receipts:
            assert log.node(receipt.sid).sid == receipt.sid
        log.prepare_for_query()
        # ... and unchanged by it.
        assert log.query_ready
        for receipt in receipts:
            assert log.node(receipt.sid).sid == receipt.sid
        assert len(log.ertree) == 11  # + dummy root

    def test_update_after_rebuild_restales(self):
        log = UpdateLog(mode="static")
        log.insert_segment(0, 4, tag_counts(log, a=1))
        log.prepare_for_query()
        log.insert_segment(0, 4, tag_counts(log, a=1))
        assert not log.query_ready

    def test_rebuild_drops_removed(self):
        log = UpdateLog(mode="static")
        first = log.insert_segment(0, 4, tag_counts(log, a=1))
        last = log.insert_segment(0, 4, tag_counts(log, a=1))
        log.prepare_for_query()
        log.remove_span(0, 4)
        # Unregistered at once, not at the next prepare.
        assert last.sid not in log.ertree
        assert first.sid in log.ertree
        assert log.segment_count == 1
        log.prepare_for_query()
        assert last.sid not in log.ertree


class TestAccounting:
    def test_bytes_grow_with_segments(self):
        log = UpdateLog()
        before = log.stats().sbtree_bytes
        for _ in range(20):
            log.insert_segment(0, 5, tag_counts(log, a=1))
        assert log.stats().sbtree_bytes > before
