"""The compiled read path: version-keyed caches for the query-side hot loop.

The paper's bargain is that updates stay cheap because queries derive what
they need on demand — but deriving the *same* thing on every call is waste,
not laziness.  Between two updates, the structures a join reads are
immutable, and the service layer's epoch publishing (``repro.service.
snapshot``) makes that window explicit: a published replica is never
mutated, so anything compiled from it stays valid for the epoch's lifetime.
This module compiles the read-side layouts Lazy-Join touches per call and
memoizes them under *per-structure version keys*.  Element columns are not
among them: a segment's elements are base data, held once by the element
index as an immutable block (:mod:`repro.core.element_index`), and
:meth:`ReadPathCache.elements` is a direct read of the block's view.  Nor
are segment lists: the tag list keeps each tag's node list, the ``SL`` the
merge reads, and applies its own inserts and removes to it
(:meth:`TagList.nodes`).  What is derived, and kept here:

- **push lists** — the Section 4.2 optimization-(i) filter (elements
  containing at least one child insertion point) precomputed per
  ``(tid, sid)`` together with a prefix-max-of-end column for skip-ahead
  containment scans, keyed on the element version *and* the ER-node's
  version (children can move under a segment without its elements
  changing);
- **span columns** — per ``(tid, sid)``, the elements' global spans minus
  the segment's ``gp``: what ``to_global`` adds for child segments and
  tombstones before each label, worked out once per (element version,
  ER-node version) instead of per record per query.  ``gp`` itself is
  never cached — a stream is ``node.gp + column``, read live — so a gp
  shift invalidates nothing.  A segment with no children and no
  tombstones shares its block's view outright; a wildcard step reads
  the all-tags view (``tid`` ``None``) the same way;
- **join results** — the top of the stack: per ``(tid_a, tid_d, axis)``,
  a :class:`JoinMemo` — one *chunk* of pairs per descendant segment, in a
  list aligned with ``SL_D``, and the answer, a read-only sequence over
  the chunks handed out uncopied while *both tags' versions* stand.  A
  chunk depends on its segment's own elements and on the A-elements of
  its ER-ancestors that span its branch point; labels are immutable,
  inserts add leaf segments, and a remove cannot delete such an ancestor
  element without deleting the segment — so a chunk is good exactly while
  its segment has not been written (DESIGN.md §4e).  The join after an
  update realigns the chunks by ``SL_D``'s edits, reads the sids the
  element index's journal logged since the memo was built, and re-merges
  those D-segments alone; a journal or an edit log trimmed past the memo
  makes it a miss.  Pair order survives too: gp shifts keep order.
- **path matches** — per parsed path, a :class:`PathMemo`: per step and
  segment the elements matching so far (:mod:`repro.core.query`), good
  by the same rule; the :data:`PATHS_KEPT` stored last are kept.

There is one regime: every lookup memoises.  :meth:`ReadPathCache.clear`
is the "cold" lever — it drops everything derived and forces the same
recompilation through the same code; element blocks are not its to drop.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from itertools import accumulate
from typing import NamedTuple

from repro.core.element_index import CompiledElements
from repro.joins.kernels import push_kept
from repro.obs.metrics import METRICS

__all__ = [
    "CompiledPushList",
    "JoinMemo",
    "PathMemo",
    "ReadPathCache",
]

#: Path memos kept per cache (as many as ``query.parse_path`` memoises).
PATHS_KEPT = 256

# Query-path instruments (a cache hit/miss is real read work wherever it
# happens, so these ignore the per-structure `observed` replica flag).
_M_EL_HITS = METRICS.counter(
    "readpath.elements.hits", unit="lookups", site="ReadPathCache.span_columns"
)
_M_EL_MISSES = METRICS.counter(
    "readpath.elements.misses", unit="lookups", site="ReadPathCache.span_columns"
)
_M_PUSH_HITS = METRICS.counter(
    "readpath.push.hits", unit="lookups", site="ReadPathCache.push_elements"
)
_M_PUSH_MISSES = METRICS.counter(
    "readpath.push.misses", unit="lookups", site="ReadPathCache.push_elements"
)
_M_JOIN_HITS = METRICS.counter(
    "readpath.joins.hits", unit="lookups", site="ReadPathCache.cached_join"
)
_M_JOIN_MISSES = METRICS.counter(
    "readpath.joins.misses", unit="lookups", site="ReadPathCache.cached_join"
)
_M_INVALIDATED = METRICS.counter(
    "readpath.invalidations",
    unit="entries",
    site="ReadPathCache (stale entry replaced or dropped)",
)


def span_offsets(compiled: CompiledElements, node) -> CompiledElements:
    """``compiled`` with its local spans mapped to global ones minus ``gp``.

    One :meth:`ERNode.global_offsets` pass per column instead of two
    ``to_global`` calls per record.  A segment whose labels *are* its
    offsets (no children, no tombstones) gets ``compiled`` back.
    """
    starts = node.global_offsets(compiled.starts)
    if starts is compiled.starts:
        return compiled
    return CompiledElements(
        compiled.records,
        starts,
        node.global_offsets(compiled.ends, count_ties=False),
        compiled.levels,
    )


class CompiledPushList:
    """A segment's Lazy-Join push list: optimization-(i) filtered columns.

    Only elements containing at least one child insertion point can ever
    satisfy Proposition 3(2); this precomputes that subset once per
    (element version, node version) instead of per join.  ``maxends[i]`` is
    ``max(ends[:i+1])`` — a frame whose prefix max does not exceed the
    branch position cannot join the descendant segment at all, which lets
    the cross-join scan skip whole frames with one comparison.

    Like :class:`CompiledElements`, ``records`` are lazy on the
    selection-based constructor: the columns are filtered eagerly (the
    merge scans them), the record subset materializes only when a frame
    built from this push list actually emits pairs.
    """

    __slots__ = ("_source", "_kept", "_records", "starts", "ends", "maxends")

    def __init__(self, records, starts, ends):
        self._source = None
        self._kept = None
        self._records = records
        self.starts = starts
        self.ends = ends
        self.maxends = list(accumulate(ends, max))

    @classmethod
    def from_selection(cls, source: CompiledElements, kept) -> "CompiledPushList":
        """Filtered view of compiled element columns.

        ``kept`` is the surviving index list from
        :func:`~repro.joins.kernels.push_kept`, or
        ``None`` for "every element survives" — in which case the
        source's (immutable) columns are shared outright and the record
        tuple is shared on materialization too.
        """
        self = cls.__new__(cls)
        self._source = source
        self._kept = kept
        self._records = None
        if kept is None:
            self.starts = source.starts
            self.ends = source.ends
        else:
            self.starts = array("q", map(source.starts.__getitem__, kept))
            self.ends = array("q", map(source.ends.__getitem__, kept))
        self.maxends = list(accumulate(self.ends, max))
        return self

    @property
    def records(self):
        records = self._records
        if records is None:
            source_records = self._source.records
            kept = self._kept
            records = (
                source_records
                if kept is None
                else tuple(map(source_records.__getitem__, kept))
            )
            self._records = records
            self._source = None
            self._kept = None
        return records

    def __len__(self) -> int:
        return len(self.starts)


class JoinMemo(NamedTuple):
    """One stored ``A // D`` answer and the chunks it is cut from.

    ``chunks[i]`` is ``(pairs, depth)`` for the ``i``-th D-segment of
    ``SL_D`` at tag version ``version_d``: its pairs and the deepest stack
    its merge charged; ``depth_counts`` maps a depth to how many chunks
    have it.  ``answer`` strings the chunks' pairs together — what callers
    get — and ``depth`` is their maximum.  Built when the element index's
    journal stood at ``position``.  Never mutated once stored.
    """

    version_a: int
    version_d: int
    position: int
    chunks: list
    depth_counts: dict
    answer: Sequence
    depth: int


class PathMemo(NamedTuple):
    """One path's distinct matches: ``levels[k]`` is sid-ascending parallel
    ``(sids, entries)``, ``entries[i]`` segment ``sids[i]``'s elements
    matching the first ``k + 1`` steps (a set; at the last step a
    start-sorted tuple, which ``answer`` chains).  Never mutated."""

    position: int
    levels: list
    answer: Sequence


class ReadPathCache:
    """Version-keyed memo of compiled read-path state for one database.

    Owned by a :class:`~repro.core.database.LazyXMLDatabase`; replicas get
    their own instance (clones rebuild from scratch), and epoch replay on a
    spare replica bumps exactly the touched structures' versions, so a
    replica's warm state survives publishes untouched except where ops
    landed.
    """

    def __init__(self, log, index):
        self._log = log
        self._index = index
        # sid -> {tid: (index_version, node_version, CompiledPushList)}
        self._push: dict[int, dict[int, tuple[int, int, CompiledPushList]]] = {}
        # sid -> {tid: (index_version, node_version, gp-free
        #   CompiledElements)}; tid None = all tags
        self._spans: dict[int, dict[int | None, tuple]] = {}
        # (tid_a, tid_d, axis) -> JoinMemo
        self._joins: dict[tuple[int, int, str], JoinMemo] = {}
        # (entry tid, ((axis, tid), ...)) -> PathMemo
        self._paths: dict[tuple, PathMemo] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def clear(self) -> None:
        """Drop all compiled state (counters are kept)."""
        self._push.clear()
        self._spans.clear()
        self._joins.clear()
        self._paths.clear()

    # ------------------------------------------------------------------
    # compiled lookups

    def elements(self, tid: int | None, sid: int) -> CompiledElements:
        """Segment ``sid``'s elements of tag ``tid`` (``None``: of every
        tag, what a wildcard step reads): the element index's own view."""
        return self._index.block(sid).tag(tid)

    def _versioned(self, table: dict, tid, node, compile_from, hit, miss):
        """``table[node.sid][tid]`` while the segment's elements and its
        ER-node stand as they were when it was compiled; else recompiled
        by ``compile_from(view, node)`` and stored."""
        sid = node.sid
        iv = self._index.version(sid)
        nv = node._version
        held = table.get(sid)
        if held is None:
            held = table[sid] = {}
        cached = held.get(tid)
        if cached is not None:
            if cached[0] == iv and cached[1] == nv:
                self.hits += 1
                if METRICS.enabled:
                    hit.inc()
                return cached[2]
            self.invalidations += 1
            if METRICS.enabled:
                _M_INVALIDATED.inc()
        self.misses += 1
        if METRICS.enabled:
            miss.inc()
        compiled = compile_from(self.elements(tid, sid), node)
        held[tid] = (iv, nv, compiled)
        return compiled

    def push_elements(self, tid: int, node) -> CompiledPushList:
        """The optimization-(i) push list for tag ``tid`` in segment ``node``."""
        return self._versioned(
            self._push, tid, node, self.compile_push_from,
            _M_PUSH_HITS, _M_PUSH_MISSES,
        )

    @staticmethod
    def compile_push_from(full: CompiledElements, node) -> CompiledPushList:
        """Optimization-(i) filter over already compiled element columns.

        An element survives iff the first child insertion point past its
        start lies inside its span — :func:`~repro.joins.kernels.push_kept`
        advances a single cursor over the (sorted) child lps, one
        O(n + m) merge scan.  When every element survives, the compiled
        columns are shared outright (compiled artifacts are immutable, and
        the join only reads them).
        """
        lps = [child.lp for child in node.children]
        if not lps:
            return CompiledPushList((), array("q"), array("q"))
        return CompiledPushList.from_selection(
            full, push_kept(full.starts, full.ends, lps)
        )

    def span_columns(self, tid: int | None, node) -> CompiledElements:
        """Tag ``tid``'s elements in segment ``node`` as gp-free global spans.

        ``starts[i]`` / ``ends[i]`` are ``node.to_global(record.start)`` /
        ``node.to_global(record.end, count_ties=False)`` minus ``node.gp``;
        ``levels`` and ``records`` are the element arrays' own.  ``tid``
        ``None`` is every tag (see :meth:`elements`).
        """
        return self._versioned(
            self._spans, tid, node, span_offsets, _M_EL_HITS, _M_EL_MISSES
        )

    def cached_join(self, tid_a: int, tid_d: int, axis: str) -> JoinMemo | None:
        """The stored ``tid_a // tid_d`` memo, if its answer is still whole.

        Whole means *both* tags' versions are unchanged since the store —
        then no chunk can have moved (see the module docstring).  On a miss
        a stale entry stays in place, because most of its chunks are still
        good (:meth:`join_memo`).
        """
        cached = self._joins.get((tid_a, tid_d, axis))
        if cached is not None:
            taglist = self._log.taglist
            if (
                cached.version_a == taglist.version(tid_a)
                and cached.version_d == taglist.version(tid_d)
            ):
                self.hits += 1
                if METRICS.enabled:
                    _M_JOIN_HITS.inc()
                return cached
            self.invalidations += 1
            if METRICS.enabled:
                _M_INVALIDATED.inc()
        self.misses += 1
        if METRICS.enabled:
            _M_JOIN_MISSES.inc()
        return None

    def join_memo(self, tid_a: int, tid_d: int, axis: str) -> JoinMemo | None:
        """The memo last stored for this join, whole or stale."""
        return self._joins.get((tid_a, tid_d, axis))

    def store_join(self, tid_a: int, tid_d: int, axis: str, memo: JoinMemo) -> None:
        """Publish a join memo.

        One assignment of one immutable entry: a concurrent reader of the
        same (pinned, hence unchanging) replica sees the old entry or the
        new one, both valid.
        """
        self._joins[(tid_a, tid_d, axis)] = memo

    def path_memo(self, key: tuple) -> PathMemo | None:
        """The memo last stored for this path, current or not."""
        return self._paths.get(key)

    def store_path(self, key: tuple, memo: PathMemo) -> None:
        """Publish a path memo as the newest, dropping the oldest past
        :data:`PATHS_KEPT` (safe for readers storing at once)."""
        paths = self._paths
        paths.pop(key, None)
        paths[key] = memo
        if len(paths) > PATHS_KEPT:
            for stale in list(paths)[:-PATHS_KEPT]:
                paths.pop(stale, None)

    # ------------------------------------------------------------------
    # eager invalidation (lazy version checks already guarantee safety;
    # this reclaims memory for segments that will never be queried again)

    def drop_segment(self, sid: int) -> int:
        """Forget all compiled state for a removed/repacked segment."""
        dropped = len(self._push.pop(sid, ())) + len(self._spans.pop(sid, ()))
        if dropped:
            self.invalidations += dropped
            if METRICS.enabled:
                _M_INVALIDATED.inc(dropped)
        return dropped

    # ------------------------------------------------------------------
    # introspection

    def stats(self) -> dict:
        """Hit/miss/entry counts (surfaced by the service health output)."""
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
            "entries": {
                "push_lists": sum(map(len, self._push.values())),
                "span_columns": sum(map(len, self._spans.values())),
                "join_results": len(self._joins),
                "join_chunks": sum(len(m.chunks) for m in self._joins.values()),
                "path_results": len(self._paths),
                "path_entries": sum(
                    len(sids) for m in self._paths.values() for sids, _ in m.levels
                ),
            },
        }

    def approximate_bytes(self) -> int:
        """Rough size of the compiled state: 8 bytes per stored scalar."""
        total = 0
        # Span columns of their own are two offset columns; those of a
        # segment whose labels are its offsets are the element index's
        # view again (counted there, like every element column).
        for sid, held in self._spans.items():
            for tid, (_, _, spans) in held.items():
                if spans is not self.elements(tid, sid):
                    total += 8 * 2 * len(spans)
        for held in self._push.values():
            for _, _, push in held.values():
                total += 8 * 3 * len(push)
        for memo in self._joins.values():
            # two 4-field records per pair, one more reference to it from
            # its chunk; a chunk's reference, pairs and depth per D-segment
            total += 8 * 9 * len(memo.answer) + 8 * 3 * len(memo.chunks)
        for memo in self._paths.values():
            # a reference per matched record; a sid and an entry per row
            for sids, entries in memo.levels:
                total += 8 * (2 * len(sids) + sum(map(len, entries)))
        return total
