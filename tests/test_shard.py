"""Core sharding tests: routing, document map, catalog, shard affinity.

The load-bearing property is the routing invariant (a segment never
crosses the document it was inserted into, so updates route to exactly
one shard and per-shard join answers union to the global answer).  These
tests exercise its bookkeeping directly — the sid lattice, the document
map, boundary vs inside insert routing, whole-document removal
decomposition — plus the PR 4 interaction the partitioning exists to
protect: a write to one shard must leave every *other* shard's compiled
read-path memos valid, so a cold re-run there recompiles nothing.
"""

from __future__ import annotations

import re
import threading

import pytest

from repro.core.database import LazyXMLDatabase
from repro.errors import InvalidSegmentError
from repro.shard import DocumentMap, ShardedDatabase, TagCatalog

DOCS = [
    "<a><b><c>x</c></b><c>y</c></a>",
    "<a><b>z</b></a>",
    "<b><c>q</c></b>",
    "<a><c>r</c><b><c>s</c></b></a>",
]


def sharded_with_docs(n_shards: int, docs=DOCS) -> ShardedDatabase:
    db = ShardedDatabase(n_shards)
    for doc in docs:
        db.insert(doc)
    return db


class TestDocumentMap:
    def test_insert_remove_ordinals(self):
        docmap = DocumentMap()
        docmap.insert_doc(0, 0)
        docmap.insert_doc(1, 1)
        docmap.insert_doc(1, 0)  # displaces the shard-1 doc to index 2
        assert docmap.docs == [0, 0, 1]
        assert docmap.docs_on(0) == 2
        assert docmap.ordinal(1) == 1  # second shard-0 document
        assert docmap.remove_doc(1) == 0
        assert docmap.docs == [0, 1]


class TestRouting:
    def test_sid_lattice_names_the_shard(self):
        db = sharded_with_docs(3)
        for shard, shard_db in enumerate(db.shards):
            for node in shard_db.log.ertree.root.children:
                assert (node.sid - 1) % 3 == shard
                assert db.shard_of_sid(node.sid) == shard

    def test_boundary_inserts_round_robin(self):
        db = sharded_with_docs(2)
        assert db.docmap.docs == [0, 1, 0, 1]
        assert db.docmap.docs_on(0) == 2

    def test_inside_insert_routes_to_owning_shard(self):
        db = sharded_with_docs(2)
        table = db._doc_table()
        doc = table[1]  # owned by shard 1
        before = [db.shards[s].segment_count for s in range(2)]
        db.insert("<c>new</c>", doc.vstart + len("<a>"))
        after = [db.shards[s].segment_count for s in range(2)]
        assert after[0] == before[0]
        assert after[1] == before[1] + 1

    def test_text_and_counts_aggregate_in_document_order(self):
        db = sharded_with_docs(3)
        single = LazyXMLDatabase()
        for doc in DOCS:
            single.insert(doc)
        assert db.text == single.text == "".join(DOCS)
        assert db.document_length == single.document_length
        assert db.element_count == single.element_count
        assert db.segment_count == len(DOCS)
        db.check_invariants()

    def test_cross_document_removal_is_refused_typed(self):
        db = sharded_with_docs(2)
        first_len = len(DOCS[0])
        with pytest.raises(InvalidSegmentError, match="crosses the boundary"):
            db.remove(first_len - 3, 6)

    def test_whole_document_run_removal_decomposes(self):
        db = sharded_with_docs(2)
        single = LazyXMLDatabase()
        for doc in DOCS:
            single.insert(doc)
        start = len(DOCS[0])
        length = len(DOCS[1]) + len(DOCS[2])
        outcome = db.remove(start, length)
        single.remove(start, length)
        assert len(outcome.report.removed_sids) == 2
        assert db.text == single.text
        assert db.docmap.docs == [0, 1]
        db.check_invariants()

    def test_remove_segment_updates_docmap(self):
        db = sharded_with_docs(2)
        sid = db.shards[1].log.ertree.root.children[0].sid
        db.remove_segment(sid)
        assert db.docmap.docs == [0, 0, 1]
        db.check_invariants()

    def test_repack_and_compact_route(self):
        db = sharded_with_docs(2)
        table = db._doc_table()
        db.insert("<c>nested</c>", table[0].vstart + len("<a>"))
        top_sid = db.shards[0].log.ertree.root.children[0].sid
        db.repack(top_sid)
        result = db.compact()
        assert result.segments_after == len(DOCS)
        db.check_invariants()

    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_compact_and_repack_stay_on_the_sid_lattice(self, n_shards):
        db = sharded_with_docs(n_shards)
        db.compact()
        first = db._doc_table()[0]
        db.insert("<c>nested</c>", first.vstart + len("<a>"))
        db.repack(first.node.sid)
        owners: dict[int, int] = {}
        for shard, shard_db in enumerate(db.shards):
            for node in shard_db.log.ertree.root.children:
                assert db.shard_of_sid(node.sid) == shard
                assert owners.setdefault(node.sid, shard) == shard
        assert len(owners) == len(DOCS)
        db.check_invariants()

    @pytest.mark.parametrize("n_shards", [2, 3])
    @pytest.mark.parametrize("victim", range(len(DOCS)))
    def test_remove_segment_after_compact_removes_that_document(
        self, n_shards, victim
    ):
        db = sharded_with_docs(n_shards)
        db.compact()
        doc = db._doc_table()[victim]
        expected = db.text[: doc.vstart] + db.text[doc.vend :]
        db.remove_segment(doc.node.sid)
        assert db.text == expected
        db.check_invariants()


class TestCatalog:
    def test_counts_match_shards(self):
        db = sharded_with_docs(2)
        catalog = TagCatalog(db.shards)
        assert catalog.count("c") == 5
        assert catalog.count_on(0, "c") + catalog.count_on(1, "c") == 5
        assert catalog.count("nope") == 0

    def test_scatter_prunes_shards_without_the_tags(self):
        db = ShardedDatabase(2)
        db.insert("<only0><c>x</c></only0>")  # shard 0
        db.insert("<only1><c>y</c></only1>")  # shard 1
        assert db.catalog.shards_for("only0") == [0]
        assert db.catalog.shards_for("only1", "c") == [1]
        assert db.catalog.shards_for("only0", "only1") == []
        # An empty target list short-circuits without touching the executor.
        assert db.structural_join("only0", "only1") == []
        pairs = db.structural_join("only0", "c")
        assert [(a.shard, d.shard) for a, d in pairs] == [(0, 0)]


#: A bad argument on a query over tags no shard holds: (verb request,
#: direct call, the argument the error names).
_BAD_ARGUMENTS = [
    ({"cmd": "join", "ancestor": "nope", "descendant": "nada",
      "axis": "sideways"},
     lambda db: db.structural_join("nope", "nada", "sideways"), "axis"),
    ({"cmd": "join", "ancestor": "nope", "descendant": "nada",
      "algorithm": "merge"},
     lambda db: db.structural_join("nope", "nada", algorithm="merge"),
     "algorithm"),
    ({"cmd": "twig", "expr": "nope[nada]", "strategy": "fastest"},
     lambda db: db.twig_query("nope[nada]", strategy="fastest"), "strategy"),
]


@pytest.mark.parametrize("n_shards", [None, 1, 2], ids=["single", "1", "2"])
@pytest.mark.parametrize(
    "request_, call, name", _BAD_ARGUMENTS, ids=["axis", "algorithm", "strategy"]
)
def test_bad_argument_refused_before_pruning(n_shards, request_, call, name):
    """The coordinator checks ``axis``/``algorithm``/``strategy`` before
    the catalog prunes every shard, so a query no shard can answer raises
    the single database's :class:`QueryError` instead of answering ``[]``;
    the single database raises it through the verb too (only one database
    is ever served)."""
    from repro.errors import QueryError
    from repro.service import DatabaseService
    from repro.service.commands import SessionState, execute_request

    single = LazyXMLDatabase()
    for doc in DOCS:
        single.insert(doc)
    db = single if n_shards is None else sharded_with_docs(n_shards)
    with pytest.raises(QueryError) as want:
        call(single)
    assert f"{name} must be one of" in str(want.value)
    with pytest.raises(QueryError, match=re.escape(str(want.value))):
        call(db)
    if n_shards is not None:
        return
    with DatabaseService(db) as service:
        with pytest.raises(QueryError, match=re.escape(str(want.value))):
            execute_request(service, SessionState(0), dict(request_))


class _CountingExecutor:
    """Wraps an executor, recording which shards each scatter contacted."""

    def __init__(self, inner):
        self.inner = inner
        self.contacted: list[list[int]] = []

    def scatter(self, requests, *, timeout=None):
        self.contacted.append([shard for shard, _, _ in requests])
        return self.inner.scatter(requests, timeout=timeout)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestScatterCache:
    """The coordinator's version-token scatter cache (rides PR 4's idea)."""

    def _build(self):
        db = sharded_with_docs(2)
        counting = _CountingExecutor(db.executor)
        db._executor = counting
        return db, counting

    def test_repeat_query_skips_the_executor_entirely(self):
        db, counting = self._build()
        first = db.structural_join("a", "c")
        second = db.structural_join("a", "c")
        assert [(a.gspan, d.gspan) for a, d in first] == [
            (a.gspan, d.gspan) for a, d in second
        ]
        assert counting.contacted[-1] == [], "merged-result hit still scattered"

    def test_write_invalidates_only_the_owning_shard(self):
        db, counting = self._build()
        db.structural_join("a", "c")
        doc = next(d for d in db._doc_table() if d.shard == 1)
        db.insert("<c>w</c>", doc.vstart + len("<a>"))
        db.structural_join("a", "c")
        assert counting.contacted[-1] == [1], (
            "only the written shard should be re-contacted"
        )

    def test_cached_rows_track_layout_shifts_from_other_shards(self):
        db, counting = self._build()
        single = LazyXMLDatabase()
        for doc in DOCS:
            single.insert(doc)
        db.structural_join("a", "c")
        # Grow a shard-0 document: every later document's virtual start
        # shifts, but shard 1's cached rows must follow without being
        # recomputed (their document cells move instead).
        doc = next(d for d in db._doc_table() if d.shard == 0)
        db.insert("<c>w</c>", doc.vstart + len("<a>"))
        single.insert("<c>w</c>", doc.vstart + len("<a>"))
        got = sorted((a.gspan, d.gspan) for a, d in db.structural_join("a", "c"))
        want = sorted(
            (single.global_span(a), single.global_span(d))
            for a, d in single.structural_join("a", "c")
        )
        assert got == want
        assert counting.contacted[-1] == [0]

    def test_stats_request_forces_full_fanout(self):
        from repro.core.join import JoinStatistics

        db, counting = self._build()
        db.structural_join("a", "c")
        db.structural_join("a", "c", stats=JoinStatistics())
        assert set(counting.contacted[-1]) == {0, 1}

    def test_flush_caches_forces_cold_scatter(self):
        db, counting = self._build()
        db.structural_join("a", "c")
        db.flush_caches()
        db.structural_join("a", "c")
        assert set(counting.contacted[-1]) == {0, 1}


class TestShardAffinity:
    """Satellite 4: writers on distinct shards never invalidate each
    other's compiled read-path memos."""

    N = 4
    WRITES = 12

    def _build(self):
        db = ShardedDatabase(self.N)
        for i in range(self.N):
            db.insert(f"<t{i}><c>x</c><b><c>y</c></b></t{i}>")
        return db

    def _misses_after_rerun(self, db):
        """Each shard's read-path misses after a cold scatter of every
        shard's ``t<i>//c`` twig, whose streams are the span columns
        keyed on the segment's versions: a shard whose memos survived
        recompiles nothing."""
        db.flush_caches()
        for i in range(self.N):
            db.twig_query(f"t{i}//c")
        return [shard.readpath.misses for shard in db.shards]

    def test_concurrent_writers_leave_other_shards_versions_untouched(self):
        db = self._build()
        before = self._misses_after_rerun(db)  # warms every read path

        def writer(shard: int):
            for _ in range(self.WRITES):
                table = db._doc_table()
                doc = next(d for d in table if d.shard == shard)
                db.insert("<c>w</c>", doc.vstart + len(f"<t{shard}>"))

        threads = [
            threading.Thread(target=writer, args=(shard,)) for shard in (0, 1)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        after = self._misses_after_rerun(db)
        # The written shards re-derive their columns; the others hit.
        for shard in (0, 1):
            assert after[shard] > before[shard]
        for shard in (2, 3):
            assert after[shard] == before[shard], (
                f"shard {shard} recompiled its read path without a write"
            )
        db.check_invariants()

    def test_untouched_shards_memos_still_hit_warm(self):
        db = self._build()
        for i in range(self.N):
            db.structural_join(f"t{i}", "c")
        base2 = db.shards[2]
        lookups_before = (base2.readpath.hits, base2.readpath.misses)
        # Write to shards 0 and 1 only.
        for shard in (0, 1):
            table = db._doc_table()
            doc = next(d for d in table if d.shard == shard)
            db.insert("<c>w</c>", doc.vstart + len(f"<t{shard}>"))
        # Layer 1: shard 2's op token never moved, so the coordinator's
        # scatter cache answers without contacting the shard at all.
        pairs = db.structural_join("t2", "c")
        assert len(pairs) == 2
        assert (base2.readpath.hits, base2.readpath.misses) == lookups_before
        # Layer 2: force a cold scatter — the shard's own compiled read
        # path is still warm (its versions never moved): it recompiles
        # nothing.
        db.flush_caches()
        pairs = db.structural_join("t2", "c")
        assert len(pairs) == 2
        assert base2.readpath.misses == lookups_before[1]

    def test_writes_bump_only_the_owning_shards_counters(self):
        db = self._build()
        before = self._misses_after_rerun(db)
        table = db._doc_table()
        doc = next(d for d in table if d.shard == 3)
        db.insert("<c>w</c>", doc.vstart + len("<t3>"))
        after = self._misses_after_rerun(db)
        assert after[3] > before[3]
        assert after[:3] == before[:3]
