"""`ShardedDatabase` — the coordinator over N document-partitioned shards.

Each shard is a full :class:`~repro.core.database.LazyXMLDatabase` (own
ER-tree, tag-list, element index, compiled read path) holding a
subset of the top-level documents; the coordinator presents them as one
*virtual* super document.

**The routing invariant.**  Top-level documents are siblings under the
dummy root, and the paper's update model only ever inserts a segment
*inside* an existing document (growing that document) or *at a document
boundary* (creating a new document).  A segment therefore never crosses
the document it was inserted into — and since a containment pair ``(a,
d)`` requires ``a``'s span to enclose ``d``'s, no structural-join pair
crosses documents either.  Partitioning by document consequently
partitions both updates and join results: an update routes to exactly one
shard (bumping only that shard's version counters, so the other shards'
compiled read-path memos survive untouched), and the union of per-shard
join answers *is* the global answer.

**Coordinates.**  Updates and query results use virtual-global positions.
The coordinator translates through the document map: each shard's
dummy-root children correspond 1:1, in order, to the documents the map
assigns it, so virtual <-> shard-local is a prefix-sum rebase per
document.  Query results come back as :class:`ShardElement` records
carrying both the element's immutable local label (shard, sid, start,
end) and its derived virtual-global span; scatter-gather merges them by
global position (``(gstart, gend)`` of the descendant, then the
ancestor), giving an order independent of the shard count.

**Execution.**  Queries fan out through an executor
(:mod:`repro.shard.executor`): in-process for N=1/tests, persistent
worker processes in production, pruned by the tag-count catalog
(:mod:`repro.shard.catalog`) so shards that cannot contribute are never
contacted.  Updates apply synchronously to the coordinator's
authoritative shard and are forwarded lazily to that shard's worker.
"""

from __future__ import annotations

import heapq
import threading
from bisect import bisect_right
from dataclasses import fields
from typing import NamedTuple

from repro.core.database import LazyXMLDatabase, RemovalOutcome
from repro.core.ertree import ERNode, RemovalReport
from repro.core.join import JoinStatistics
from repro.core.segment import DUMMY_ROOT_SID
from repro.core.maintenance import RepackResult
from repro.core.update_log import LogStats
from repro.durability.recovery import apply_op, validate_batch_ops
from repro.errors import InvalidSegmentError
from repro.joins.stack_tree import AXIS_DESCENDANT, check_axis
from repro.obs.metrics import METRICS
from repro.shard.catalog import TagCatalog
from repro.shard.docmap import DocumentMap
from repro.shard.executor import InProcessExecutor, ProcessExecutor

__all__ = ["ShardedDatabase", "ShardElement"]

_M_SCATTERS = METRICS.counter(
    "shard.scatter.queries", unit="queries", site="ShardedDatabase (fan-out)"
)
_M_CACHE_HITS = METRICS.counter(
    "shard.scatter.cache_hits",
    unit="queries",
    site="ShardedDatabase (merged-result reuse)",
)

#: JoinStatistics fields that accumulate as a maximum, not a sum.
_STAT_MAX_FIELDS = {"max_stack_depth"}

#: Distinct query shapes the scatter cache retains before being cleared.
_SCATTER_CACHE_CAP = 128

#: Merge orders — identical to the single-database result orders.
_PAIR_SORT_KEY = lambda p: (p[1].gstart, p[1].gend, p[0].gstart, p[0].gend)  # noqa: E731
_ELEMENT_SORT_KEY = lambda e: (e.gstart, e.gend)  # noqa: E731


def _hashable_key(*parts):
    """The parts as a cache key, or ``None`` when any part is unhashable."""
    try:
        hash(parts)
    except TypeError:
        return None
    return parts


class _DocCell:
    """Mutable holder of one document's current virtual start position.

    Every :class:`ShardElement` of a document shares its cell, so when
    documents on *other* shards grow or shrink, refreshing the cells
    (O(documents)) re-bases every cached result element at once — no
    per-element reconstruction.  A write to the element's *own* shard
    invalidates the cached rows wholesale (the shard op token moved), so
    the element's shard-local coordinates never go stale through a cell.
    """

    __slots__ = ("vstart",)

    def __init__(self, vstart: int):
        self.vstart = vstart


class ShardElement:
    """One element in a scatter-gather result.

    ``(shard, sid, start, end, level)`` is the element's immutable
    identity — its lazy local label on the owning shard; ``gstart`` /
    ``gend`` are *derived* virtual-global coordinates: an offset inside
    the owning document plus the document's shared :class:`_DocCell`.
    Deriving them keeps coordinator-cached results valid across layout
    shifts caused by updates to other shards.
    """

    __slots__ = ("shard", "sid", "start", "end", "level", "_cell",
                 "_ostart", "_oend")

    def __init__(self, shard, sid, start, end, level, cell, ostart, oend):
        self.shard = shard
        self.sid = sid
        self.start = start
        self.end = end
        self.level = level
        self._cell = cell
        self._ostart = ostart
        self._oend = oend

    @property
    def gstart(self) -> int:
        return self._cell.vstart + self._ostart

    @property
    def gend(self) -> int:
        return self._cell.vstart + self._oend

    @property
    def gspan(self) -> tuple[int, int]:
        vstart = self._cell.vstart
        return (vstart + self._ostart, vstart + self._oend)

    def __repr__(self) -> str:
        return (
            f"ShardElement(shard={self.shard}, sid={self.sid}, "
            f"gspan=({self.gstart}, {self.gend}), level={self.level})"
        )


class _Doc(NamedTuple):
    """One row of the materialized document table (coordinator-internal)."""

    index: int  # global document order
    shard: int
    node: ERNode  # the document's dummy-root child on its shard
    vstart: int  # virtual-global start position
    cell: _DocCell  # shared position cell (refreshed by _doc_table)

    @property
    def vend(self) -> int:
        return self.vstart + self.node.length


class ShardedDatabase:
    """N document-partitioned shards behind one virtual super document.

    Parameters
    ----------
    n_shards:
        Number of partitions.  Each shard allocates segment ids from a
        disjoint lattice (``sid_start=1+i``, ``sid_stride=n_shards``), so
        a sid names its owning shard: ``(sid - 1) % n_shards``.  Fresh
        shards are LD databases.
    executor:
        ``"inprocess"`` (default — run queries on the authoritative
        shards), ``"process"`` (persistent worker processes), or an
        executor instance.
    """

    def __init__(self, n_shards: int = 1, *, executor="inprocess"):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self._n = n_shards
        self._shards = [
            LazyXMLDatabase(sid_start=1 + i, sid_stride=n_shards)
            for i in range(n_shards)
        ]
        self.docmap = DocumentMap()
        self.catalog = TagCatalog(self._shards)
        self._doc_seq = 0
        self._lock = threading.RLock()
        # Scatter result cache: per-shard row lists and the merged result,
        # keyed by query shape and validated against _shard_ops tokens
        # (one monotonic counter per shard, bumped by every routed op).
        self._shard_ops = [0] * n_shards
        self._cells: dict[tuple[int, int], _DocCell] = {}
        self._scatter_cache: dict = {}
        if executor == "inprocess":
            self._executor = InProcessExecutor(self._shards)
        elif executor == "process":
            self._executor = ProcessExecutor(self._shards)
        else:
            self._executor = executor

    # ------------------------------------------------------------------
    # structure accessors

    @property
    def n_shards(self) -> int:
        return self._n

    @property
    def shards(self) -> list:
        """The authoritative shard databases (coordinator-owned)."""
        return list(self._shards)

    @property
    def executor(self):
        return self._executor

    def _base(self, shard: int) -> LazyXMLDatabase:
        return self._shards[shard]

    def shard_of_sid(self, sid: int) -> int:
        """Owning shard of a segment id (the sid-lattice inverse)."""
        if sid == DUMMY_ROOT_SID:
            raise ValueError("the dummy root is per-shard, not addressable")
        return (sid - 1) % self._n

    @property
    def document_length(self) -> int:
        """Virtual super-document length in characters."""
        return sum(self._base(s).document_length for s in range(self._n))

    @property
    def segment_count(self) -> int:
        return sum(self._base(s).segment_count for s in range(self._n))

    @property
    def element_count(self) -> int:
        return sum(self._base(s).element_count for s in range(self._n))

    @property
    def text(self) -> str:
        """The virtual super-document text, documents in global order."""
        return "".join(
            doc.node.read(doc.node.gp, doc.node.end) for doc in self._doc_table()
        )

    def stats(self) -> LogStats:
        """Aggregated update-log size snapshot across shards."""
        per = [self._base(s).stats() for s in range(self._n)]
        return LogStats(
            segments=sum(p.segments for p in per),
            tag_entries=sum(p.tag_entries for p in per),
            sbtree_bytes=sum(p.sbtree_bytes for p in per),
            taglist_bytes=sum(p.taglist_bytes for p in per),
        )

    def close(self) -> None:
        """Shut the executor down (worker processes, if any)."""
        self._executor.close()

    def __enter__(self) -> "ShardedDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the materialized document table (virtual <-> shard-local mapping)

    def _doc_table(self) -> list[_Doc]:
        """Documents in global order with live spans from the shard trees.

        Also refreshes the per-document position cells — the single
        O(documents) step that re-bases every cached result element.
        Cells are keyed by ``(shard, ordinal)``: a document insert or
        removal *on a shard* changes that shard's ordinals, but it also
        bumps that shard's op token, so the only cached rows that could
        see a reassigned cell are already invalid.
        """
        ordinals = [0] * self._n
        out: list[_Doc] = []
        vstart = 0
        for index, shard in enumerate(self.docmap.docs):
            children = self._base(shard).log.ertree.root.children
            ordinal = ordinals[shard]
            node = children[ordinal]
            ordinals[shard] += 1
            cell = self._cells.get((shard, ordinal))
            if cell is None:
                cell = self._cells[(shard, ordinal)] = _DocCell(vstart)
            else:
                cell.vstart = vstart
            out.append(_Doc(index, shard, node, vstart, cell))
            vstart += node.length
        return out

    @staticmethod
    def _cell_views(table: list[_Doc]) -> dict[int, tuple[list[int], list[_DocCell]]]:
        """Per-shard arrays for element building: child gps + their cells."""
        views: dict[int, tuple[list[int], list[_DocCell]]] = {}
        for doc in table:
            gps, cells = views.setdefault(doc.shard, ([], []))
            gps.append(doc.node.gp)
            cells.append(doc.cell)
        return views

    @staticmethod
    def _make_element(views, shard, start, end, gs, ge, sid, level) -> ShardElement:
        """One worker reply row -> :class:`ShardElement`.

        A row is the record's shard-local ``(start, end)`` followed by its
        :func:`~repro.service.commands.span_row` on the shard.  The owning
        document is found by the span's *start* position — an element
        never crosses its document, but its exclusive end may touch the
        next document's start.
        """
        gps, cells = views[shard]
        i = bisect_right(gps, gs) - 1
        base = gps[i]
        return ShardElement(shard, sid, start, end, level, cells[i],
                            gs - base, ge - base)

    def _element_rows(self, views, shard, reply) -> list[ShardElement]:
        """A worker's rows as elements (``path``, ``twig``, ``elements``)."""
        make = self._make_element
        return [make(views, shard, *row) for row in reply]

    # ------------------------------------------------------------------
    # update routing

    def _commit(self, shard: int, op: dict, doc_change=None):
        """Apply one routed op to its authoritative shard.

        ``doc_change`` is ``("insert", doc_index)`` / ``("remove",
        doc_index)`` when the op creates/destroys a top-level document.
        The op applies through the same dispatcher crash recovery and
        worker replicas use, and is forwarded lazily to the shard's worker.
        """
        result = apply_op(self._shards[shard], op)
        if doc_change is not None:
            kind, doc_index = doc_change
            if kind == "insert":
                self.docmap.insert_doc(doc_index, shard)
            else:
                self.docmap.remove_doc(doc_index)
        self._shard_ops[shard] += 1
        self._executor.forward(shard, op)
        return result

    def insert(self, fragment: str, position: int | None = None):
        """Insert ``fragment`` at virtual-global ``position``.

        A position strictly inside an existing document routes to that
        document's shard (the segment nests there — the routing
        invariant).  A position on a document boundary creates a *new*
        top-level document, placed round-robin by the deterministic
        router.  Returns the owning shard's
        :class:`~repro.core.update_log.InsertReceipt` (``gp`` is
        shard-local; the sid's lattice names the shard).
        """
        with self._lock:
            table = self._doc_table()
            total = table[-1].vend if table else 0
            if position is None:
                position = total
            if not 0 <= position <= total:
                raise InvalidSegmentError(
                    f"insert position {position} outside super document "
                    f"[0, {total}]"
                )
            doc = self._doc_at(table, position)
            op: dict = {"op": "insert", "fragment": fragment}
            if doc is not None:
                op["position"] = doc.node.gp + (position - doc.vstart)
                return self._commit(doc.shard, op)
            # Boundary: a new document.  Its global index is the number of
            # documents ending at or before the position.
            doc_index = sum(1 for d in table if d.vend <= position)
            shard = self._doc_seq % self._n
            self._doc_seq += 1
            ordinal = sum(1 for d in table[:doc_index] if d.shard == shard)
            children = self._base(shard).log.ertree.root.children
            op["position"] = (
                children[ordinal].gp
                if ordinal < len(children)
                else self._base(shard).document_length
            )
            return self._commit(shard, op, ("insert", doc_index))

    @staticmethod
    def _doc_at(table: list[_Doc], position: int) -> _Doc | None:
        """The document ``position`` falls strictly inside, else None."""
        if not table:
            return None
        vstarts = [doc.vstart for doc in table]
        i = bisect_right(vstarts, position) - 1
        if i < 0:
            return None
        doc = table[i]
        if doc.vstart < position < doc.vend:
            return doc
        return None

    def remove(self, position: int, length: int) -> RemovalOutcome:
        """Remove ``length`` characters at virtual-global ``position``.

        A span inside one document routes to its shard (which applies the
        single-database validation — boundary-crossing and mid-tag checks
        — against identical internal topology).  A span covering whole
        documents decomposes into per-document removals, applied in
        reverse global order so earlier sub-removals never shift later
        ones.  A span partially crossing a document boundary is refused
        with the same typed error the single database raises for its
        top-level segments.  Either way the result is what the single
        database returns: one :class:`RemovalOutcome` for the span.
        """
        with self._lock:
            if length <= 0:
                raise InvalidSegmentError(
                    f"removal length must be positive, got {length}"
                )
            table = self._doc_table()
            total = table[-1].vend if table else 0
            if position < 0 or position + length > total:
                raise InvalidSegmentError(
                    f"removal span [{position}, {position + length}) outside "
                    f"super document [0, {total})"
                )
            end = position + length
            inside = next(
                (
                    d
                    for d in table
                    if d.vstart <= position and end <= d.vend
                    and not (position == d.vstart and end == d.vend)
                ),
                None,
            )
            if inside is not None:
                local = inside.node.gp + (position - inside.vstart)
                return self._commit(
                    inside.shard,
                    {"op": "remove", "position": local, "length": length},
                )
            covered = [d for d in table if position <= d.vstart and d.vend <= end]
            if (
                not covered
                or covered[0].vstart != position
                or covered[-1].vend != end
            ):
                crossing = next(
                    d
                    for d in table
                    if not (end <= d.vstart or d.vend <= position)
                    and not (position <= d.vstart and d.vend <= end)
                )
                raise InvalidSegmentError(
                    f"removal span [{position}, {end}) crosses the boundary "
                    f"of document {crossing.index} "
                    f"[{crossing.vstart}, {crossing.vend}); remove whole "
                    "documents or spans inside one document"
                )
            outcomes = [
                self._commit(
                    doc.shard,
                    {
                        "op": "remove",
                        "position": doc.node.gp,
                        "length": doc.node.length,
                    },
                    ("remove", doc.index),
                )
                for doc in reversed(covered)
            ]
            outcomes.reverse()
            # One outcome for the whole span, documents in global order.
            return RemovalOutcome(
                RemovalReport(
                    [node for o in outcomes for node in o.report.removed],
                    [part for o in outcomes for part in o.report.partials],
                ),
                sum(o.elements_removed for o in outcomes),
            )

    def remove_segment(self, sid: int) -> RemovalOutcome:
        """Remove exactly the span segment ``sid`` occupies (sid-routed)."""
        with self._lock:
            shard = self.shard_of_sid(sid)
            node = self._base(shard).log.node(sid)
            doc_change = None
            if node.parent is not None and node.parent.sid == DUMMY_ROOT_SID:
                # Removing a whole top-level document.
                ordinal = self._base(shard).log.ertree.root.children.index(node)
                seen = -1
                for doc_index, owner in enumerate(self.docmap.docs):
                    if owner == shard:
                        seen += 1
                        if seen == ordinal:
                            doc_change = ("remove", doc_index)
                            break
            return self._commit(
                shard, {"op": "remove_segment", "sid": sid}, doc_change
            )

    def repack(self, sid: int):
        """Repack segment ``sid`` on its owning shard."""
        with self._lock:
            return self._commit(self.shard_of_sid(sid), {"op": "repack", "sid": sid})

    def compact(self) -> RepackResult:
        """Compact every shard: one segment per document.

        Returns one :class:`RepackResult` summed over the shards.
        """
        with self._lock:
            per = [self._commit(s, {"op": "compact"}) for s in range(self._n)]
        return RepackResult(
            new_sids=[sid for r in per for sid in r.new_sids],
            segments_before=sum(r.segments_before for r in per),
            segments_after=sum(r.segments_after for r in per),
            elements_relabelled=sum(r.elements_relabelled for r in per),
        )

    def global_span(self, record: ShardElement) -> tuple[int, int]:
        """The current virtual-global ``(start, end)`` of one element."""
        return record.gspan

    def apply_batch(self, ops: list[dict]) -> list:
        """Apply a batch of virtual-coordinate op records in order.

        Each record uses the journal dialect with *virtual-global*
        positions.  The sub-ops run through the same batch dispatcher the
        single database uses — it calls this coordinator's own methods,
        which route each to its shard — under one lock acquisition, so no
        reader interleaves mid-batch, and a sub-op whose preconditions
        fail against mid-batch state yields ``None`` in its result slot
        exactly as there.
        """
        with self._lock:
            # Whole-batch validation against the virtual super-document
            # length first, so a malformed batch is rejected before any
            # sub-op applies — identically to the single database.
            validate_batch_ops(list(ops), self.document_length)
            return apply_op(self, {"op": "batch", "ops": ops})

    # ------------------------------------------------------------------
    # scatter-gather queries

    def _scatter(self, targets, verb, make_args, context):
        """Fan ``verb`` out to ``targets``, honoring the context deadline."""
        if context is not None:
            context.check_deadline()
        timeout = context.remaining() if context is not None else None
        requests = [(s, verb, make_args(s)) for s in targets]
        if METRICS.enabled:
            _M_SCATTERS.inc()
        trace = context.trace if context is not None else None
        if trace is None:
            return self._executor.scatter(requests, timeout=timeout)
        with trace.span(
            "shard_scatter", verb=verb, fanout=len(targets)
        ) as span:
            replies = self._executor.scatter(requests, timeout=timeout)
            span.annotate(executor=self._executor.kind)
        return replies

    # ------------------------------------------------------------------
    # the scatter result cache

    def flush_caches(self) -> None:
        """Drop the coordinator's scatter result cache.

        Correctness never requires this (entries are validated against the
        per-shard op tokens); tests use it to force cold scatter-gather
        runs through the executor.
        """
        with self._lock:
            self._scatter_cache.clear()

    def _cache_entry(self, key):
        """The cache slot for one query shape (``None`` if uncacheable)."""
        if key is None:
            return None
        entry = self._scatter_cache.get(key)
        if entry is None:
            if len(self._scatter_cache) >= _SCATTER_CACHE_CAP:
                self._scatter_cache.clear()
            entry = self._scatter_cache[key] = {"shards": {}, "merged": None}
        return entry

    def _scatter_merge(
        self,
        key,
        targets: list[int],
        verb: str,
        make_args,
        context,
        build_rows,
        sort_key,
        *,
        recompute_all: bool = False,
        fold=None,
    ) -> list:
        """Scatter ``verb`` to the *stale* targets and merge with cached rows.

        The cache has two layers, both validated against the per-shard op
        tokens (``_shard_ops``, bumped by every routed update):

        - per-shard sorted row lists — a shard whose token is unchanged is
          not contacted at all; its rows are reused as-is (their global
          coordinates track layout shifts through the document cells);
        - the merged result — when *no* target shard changed, the previous
          merge is returned outright (copied, O(rows) references).

        ``recompute_all`` forces a full fan-out (used when the caller
        wants fresh per-shard statistics); the recomputed rows still prime
        the cache.  ``fold(shard, reply)`` runs per fresh reply.
        """
        with self._lock:
            table = self._doc_table()
            entry = self._cache_entry(key)
            signature = (
                tuple(targets),
                tuple(self._shard_ops[s] for s in targets),
            )
            if (
                entry is not None
                and not recompute_all
                and entry["merged"] is not None
                and entry["merged"][0] == signature
            ):
                if METRICS.enabled:
                    _M_CACHE_HITS.inc()
                # Still runs the deadline check and records the (empty)
                # scatter in metrics and the trace.
                self._scatter([], verb, make_args, context)
                merged = list(entry["merged"][1])
                if context is not None:
                    context.charge_rows(len(merged))
                return merged
            shard_rows = entry["shards"] if entry is not None else {}
            stale = [
                s
                for s in targets
                if recompute_all
                or s not in shard_rows
                or shard_rows[s][0] != self._shard_ops[s]
            ]
            replies = self._scatter(stale, verb, make_args, context)
            views = self._cell_views(table)
            built: dict[int, list] = {}
            for shard, reply in zip(stale, replies):
                if fold is not None:
                    fold(shard, reply)
                rows = build_rows(views, shard, reply)
                rows.sort(key=sort_key)
                built[shard] = rows
                if entry is not None:
                    shard_rows[shard] = (self._shard_ops[shard], rows)
            lists = [
                built[s] if s in built else shard_rows[s][1] for s in targets
            ]
            if len(lists) == 1:
                out = list(lists[0])
            else:
                out = list(heapq.merge(*lists, key=sort_key))
            if entry is not None:
                entry["merged"] = (signature, out)
                out = list(out)
        if context is not None:
            context.check_deadline()
            context.charge_rows(len(out))
        return out

    def structural_join(
        self,
        tag_a: str,
        tag_d: str,
        axis: str = AXIS_DESCENDANT,
        *,
        stats: JoinStatistics | None = None,
        context=None,
    ) -> list[tuple[ShardElement, ShardElement]]:
        """Scatter-gather ``tag_a // tag_d`` across the shards.

        Per-shard joins run Lazy-Join locally (no pair can cross shards
        — the routing invariant); the catalog prunes shards where either
        tag has zero occurrences, and the scatter cache
        prunes shards whose op token is unchanged since the last run of
        this query.  Results are merged by virtual-global position:
        ``(d.gstart, d.gend, a.gstart, a.gend)``, an order independent of
        the shard count.  ``stats`` accumulates the per-shard
        :class:`JoinStatistics` (summed; stack depth maxed) and forces a
        full fan-out, like the single database's memo bypass.
        """
        key = _hashable_key("join", tag_a, tag_d, axis)

        def build(views, shard, reply):
            make = self._make_element
            return [
                (make(views, shard, *row[:6]), make(views, shard, *row[6:]))
                for row in reply["pairs"]
            ]

        fold = None
        if stats is not None:
            fold = lambda shard, reply: self._fold_stats(stats, reply["stats"])
        # Argument errors come before pruning: a join no shard can answer
        # refuses a bad axis exactly as one database does.
        check_axis(axis)
        with self._lock:
            targets = self.catalog.shards_for(tag_a, tag_d)
            if not targets:
                return []
            return self._scatter_merge(
                key,
                targets,
                "join",
                lambda s: (
                    tag_a,
                    tag_d,
                    axis,
                    context.remaining() if context is not None else None,
                ),
                context,
                build,
                _PAIR_SORT_KEY,
                recompute_all=stats is not None,
                fold=fold,
            )

    @staticmethod
    def _fold_stats(stats: JoinStatistics, reply: dict) -> None:
        for field in fields(JoinStatistics):
            value = reply.get(field.name, 0)
            if field.name in _STAT_MAX_FIELDS:
                setattr(stats, field.name, max(getattr(stats, field.name), value))
            else:
                setattr(stats, field.name, getattr(stats, field.name) + value)

    def global_elements(self, tag: str) -> list[ShardElement]:
        """All elements of ``tag``, virtual-global spans, sorted by start."""
        with self._lock:
            return self._scatter_matches(
                ("elements", tag),
                self.catalog.shards_for(tag),
                "elements",
                lambda s: (tag,),
                None,
            )

    def _scatter_matches(self, key, targets, verb, make_args, context):
        """Scatter an element-valued query and merge its
        :class:`ShardElement` rows by global position."""
        if not targets:
            return []
        return self._scatter_merge(
            key,
            targets,
            verb,
            make_args,
            context,
            self._element_rows,
            _ELEMENT_SORT_KEY,
        )

    def path_query(self, expression: str, *, context=None):
        """A pattern (``person//profile/interest``), scattered as the
        :meth:`twig_query` it is."""
        return self.twig_query(expression, context=context)

    def twig_query(self, expression: str, *, context=None):
        """Scatter-gather twig evaluation (``person[profile]//phone``).

        A match is rooted inside one document, so per-shard evaluation
        unions to the global answer; shards missing any *concrete* tag of
        the pattern are pruned (wildcard steps prune nothing).  Returns
        :class:`ShardElement` rows merged by global position on the
        coordinator's heap.
        """
        from repro.twig.pattern import parse_twig

        tags = sorted(parse_twig(expression).tags())
        with self._lock:
            return self._scatter_matches(
                ("twig", expression),
                # An all-wildcard pattern names no concrete tag: every
                # shard is a candidate.
                self.catalog.shards_for(*tags) if tags else list(range(self._n)),
                "twig",
                lambda s: (
                    expression,
                    context.remaining() if context is not None else None,
                ),
                context,
            )

    # ------------------------------------------------------------------
    # verification

    def check_invariants(self) -> None:
        """Per-shard invariants, the sid lattice, and the document map."""
        for s in range(self._n):
            self._base(s).check_invariants()
            # Routing by sid is only sound while every live segment sits
            # on its own shard's lattice (which also keeps sids unique
            # across shards).
            for node in self._base(s).log.ertree.nodes():
                if node.sid != DUMMY_ROOT_SID:
                    home = self.shard_of_sid(node.sid)
                    assert home == s, (
                        f"shard {s} holds sid {node.sid}, which routes to "
                        f"shard {home}"
                    )
            children = self._base(s).log.ertree.root.children
            mapped = self.docmap.docs_on(s)
            assert mapped == len(children), (
                f"shard {s}: document map lists {mapped} documents but the "
                f"shard has {len(children)} top-level segments"
            )
            tiled = sum(child.length for child in children)
            assert tiled == self._base(s).document_length, (
                f"shard {s}: top-level segments cover {tiled} of "
                f"{self._base(s).document_length} characters"
            )
