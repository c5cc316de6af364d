"""The compiled read path: version-keyed caches for the query-side hot loop.

The paper's bargain is that updates stay cheap because queries derive what
they need on demand — but deriving the *same* thing on every call is waste,
not laziness.  Between two updates, the structures a join reads are
immutable, and the service layer's epoch publishing (``repro.service.
snapshot``) makes that window explicit: a published replica is never
mutated, so anything compiled from it stays valid for the epoch's lifetime.
This module compiles the read-side layouts Lazy-Join touches per call and
memoizes them under *per-structure version keys*:

- **element arrays** — per ``(tid, sid)``, the segment's element records
  materialized once as a tuple plus flat sorted ``array('q')`` start/end/
  level columns, keyed on :meth:`ElementIndex.version` (bumped exactly when
  that segment's records change);
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
  tombstones shares its element arrays outright; a wildcard step reads
  the same columns merged over the segment's tags, under the same key;
- **segment lists** — per tag, the tag-list entries frozen as a tuple with
  an O(1) ``sid -> position`` map, keyed on :meth:`TagList.version`.
  Global positions are deliberately *not* copied out: gp shifts on every
  update, so the compiled list stores node references and the join reads
  ``node.gp`` live — which is what keeps invalidation O(touched
  structures) instead of a global flush per update;
- **local positions** — ``sid -> lp`` for branch-point resolution.  An lp
  is immutable for the segment's whole lifetime and sids are never reused,
  so this memo needs no version key at all;
- **join results** — the top of the stack: per ``(tid_a, tid_d, axis)``,
  one *chunk* of pairs per descendant segment, stamped with the segment's
  ``ElementIndex.version``, plus the chunks concatenated in ``SL_D`` order
  under *both tags' versions* for the nothing-changed hit.  A chunk
  depends on its segment's own elements and on the A-elements of its
  ER-ancestors that span its branch point; labels are immutable, inserts
  add leaf segments, and a remove cannot delete such an ancestor element
  without deleting the segment — so a chunk is good exactly while its
  stamp is current (DESIGN.md §4e), and the join after an update re-merges only
  the touched D-segments.  Pair order survives too: gp shifts keep order.

There is one regime: every lookup memoises.  :meth:`ReadPathCache.clear`
is the "cold" lever — it forces the same recompilation through the same
code.
"""

from __future__ import annotations

from array import array
from itertools import accumulate

from repro.joins.kernels import push_kept
from repro.obs.metrics import METRICS

__all__ = [
    "CompiledElements",
    "CompiledPushList",
    "CompiledSegmentList",
    "ReadPathCache",
]

# Query-path instruments (a cache hit/miss is real read work wherever it
# happens, so these ignore the per-structure `observed` replica flag).
_M_EL_HITS = METRICS.counter(
    "readpath.elements.hits", unit="lookups", site="ReadPathCache.elements"
)
_M_EL_MISSES = METRICS.counter(
    "readpath.elements.misses", unit="lookups", site="ReadPathCache.elements"
)
_M_SEG_HITS = METRICS.counter(
    "readpath.segments.hits", unit="lookups", site="ReadPathCache.segment_list"
)
_M_SEG_MISSES = METRICS.counter(
    "readpath.segments.misses", unit="lookups", site="ReadPathCache.segment_list"
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


class CompiledElements:
    """One segment's elements of one tag, compiled to flat columns.

    ``records`` is the :class:`ElementRecord` tuple (what join results
    are made of); ``starts``/``ends``/``levels`` are parallel
    ``array('q')`` columns sorted by start — local coordinates, which are
    immutable, so a compiled instance never goes stale from *other*
    segments' updates.

    The element index stores the record objects *inside* its keys, so
    adopting them here is reference copying, not per-element NamedTuple
    construction — the historical dominant compile cost.  The instance
    is also a start-ordered sequence of its records
    (``len``/index/iterate), which is how Stack-Tree-Desc consumes it;
    the column kernel defers record access until emission, then resolves
    ``.records`` once and indexes the plain tuple.
    """

    __slots__ = ("records", "starts", "ends", "levels")

    def __init__(self, records):
        self.records = tuple(records)
        self.starts = array("q", (r.start for r in self.records))
        self.ends = array("q", (r.end for r in self.records))
        self.levels = array("q", (r.level for r in self.records))

    @classmethod
    def from_columns(cls, records, starts, ends, levels) -> "CompiledElements":
        """Adopt pre-extracted records and columns in one step.

        The bulk-extraction path (``ElementIndex.segment_columns`` /
        ``tag_columns``): the index hands over the stored record tuple
        and parallel columns in one pass, so compilation never touches
        the elements one at a time.
        """
        self = cls.__new__(cls)
        self.records = records
        self.starts = starts
        self.ends = ends
        self.levels = levels
        return self

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, index):
        return self.records[index]

    def __iter__(self):
        return iter(self.records)


def span_offsets(compiled: CompiledElements, node) -> CompiledElements:
    """``compiled`` with its local spans mapped to global ones minus ``gp``.

    One :meth:`ERNode.global_offsets` pass per column instead of two
    ``to_global`` calls per record.  A segment whose labels *are* its
    offsets (no children, no tombstones) gets ``compiled`` back.
    """
    starts = node.global_offsets(compiled.starts)
    if starts is compiled.starts:
        return compiled
    return CompiledElements.from_columns(
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


class CompiledSegmentList:
    """One tag's segment list frozen for merging: ``SL_A`` / ``SL_D``.

    ``entries`` / ``nodes`` are position-aligned tuples in ascending
    segment-gp order; ``sid_index`` maps sid to position, which is what
    makes the skip-ahead merge exact: the A-segments containing a
    descendant segment are precisely the ones on its ER-tree path, so the
    merge can jump over a run of non-containing segments and probe only
    ``len(path)`` sids instead of scanning the run.
    """

    __slots__ = ("entries", "nodes", "sid_index")

    def __init__(self, entries):
        self.entries = tuple(entries)
        self.nodes = tuple(entry.node for entry in self.entries)
        self.sid_index = {node.sid: i for i, node in enumerate(self.nodes)}

    def __len__(self) -> int:
        return len(self.entries)


class ReadPathCache:
    """Version-keyed memo of compiled read-path state for one database.

    Owned by a :class:`~repro.core.database.LazyXMLDatabase`; replicas get
    their own instance (clones rebuild from scratch), and epoch replay on a
    spare replica bumps exactly the touched structures' versions, so a
    replica's warm state survives publishes untouched except where ops
    landed.
    """

    def __init__(self, log, index, segment_records=None):
        self._log = log
        self._index = index
        # sid -> that segment's parsed ``(tid, start, end, level)`` records
        # (the database's parse cache, by reference).  Read for the tag ids
        # a segment holds — a superset is fine — and only by the all-tags
        # element arrays.
        self._segment_records = segment_records
        # (tid, sid) -> (index_version, CompiledElements); tid None = all tags
        self._elements: dict[tuple[int, int], tuple[int, CompiledElements]] = {}
        # (tid, sid) -> (index_version, node_version, CompiledPushList)
        self._push: dict[tuple[int, int], tuple[int, int, CompiledPushList]] = {}
        # (tid, sid) -> (index_version, node_version, gp-free CompiledElements)
        self._spans: dict[tuple[int, int], tuple[int, int, CompiledElements]] = {}
        # sid -> tids with an `_elements` entry (push lists and span columns
        # are compiled from one, so their keys are covered too): what
        # drop_segment pops.
        self._compiled_tids: dict[int, set[int]] = {}
        # tid -> (taglist_version, CompiledSegmentList)
        self._segments: dict[int, tuple[int, CompiledSegmentList]] = {}
        # sid -> lp (immutable; no version key)
        self._lps: dict[int, int] = {}
        # (tid_a, tid_d, axis) -> (version_a, version_d, results tuple,
        #   stack depth, {D-segment sid: (index_version, depth, pairs)})
        self._joins: dict[tuple[int, int, str], tuple] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def clear(self) -> None:
        """Drop all compiled state (counters are kept)."""
        self._elements.clear()
        self._push.clear()
        self._spans.clear()
        self._compiled_tids.clear()
        self._segments.clear()
        self._lps.clear()
        self._joins.clear()

    # ------------------------------------------------------------------
    # compiled lookups

    def elements(self, tid: int | None, sid: int) -> CompiledElements:
        """The compiled element arrays for ``(tid, sid)``.

        ``tid`` ``None`` is every tag: the segment's per-tag arrays merged
        by start (what a wildcard step reads), under the same key.
        """
        key = (tid, sid)
        version = self._index.version(sid)
        cached = self._elements.get(key)
        if cached is not None:
            if cached[0] == version:
                self.hits += 1
                if METRICS.enabled:
                    _M_EL_HITS.inc()
                return cached[1]
            self.invalidations += 1
            if METRICS.enabled:
                _M_INVALIDATED.inc()
        self.misses += 1
        if METRICS.enabled:
            _M_EL_MISSES.inc()
        if tid is None:
            compiled = self._merged_elements(sid)
        else:
            compiled = CompiledElements.from_columns(
                *self._index.segment_columns(tid, sid)
            )
        self._elements[key] = (version, compiled)
        self._compiled_tids.setdefault(sid, set()).add(tid)
        return compiled

    def _merged_elements(self, sid: int) -> CompiledElements:
        tids = {record[0] for record in self._segment_records.get(sid, ())}
        parts = [
            part for tid in sorted(tids) if (part := self.elements(tid, sid))
        ]
        if len(parts) == 1:
            return parts[0]
        starts = [start for part in parts for start in part.starts]
        order = sorted(range(len(starts)), key=starts.__getitem__)

        def merged(column):
            values = [value for part in parts for value in getattr(part, column)]
            return map(values.__getitem__, order)

        return CompiledElements.from_columns(
            tuple(merged("records")),
            array("q", map(starts.__getitem__, order)),
            array("q", merged("ends")),
            array("q", merged("levels")),
        )

    def bulk_elements(self, tid: int) -> dict[int, CompiledElements]:
        """Whole-tag bulk compile: every segment's element columns at once.

        One ``ElementIndex.tag_columns`` range pass slices all of ``tid``'s
        index leaves and emits per-segment columns; this wraps each as a
        :class:`CompiledElements` and installs the stale ones under their
        current versions, so every later :meth:`elements` call for the tag
        is a hit.  Entries already fresh in the cache keep their identity
        (the compiled artifacts are shared with live join frames).  Returns ``{sid: compiled}`` for
        the segments that hold at least one ``tid`` element.
        """
        columns = self._index.tag_columns(tid)
        out: dict[int, CompiledElements] = {}
        version_of = self._index.version
        elements = self._elements
        stale = 0
        invalidated = 0
        for sid, cols in columns.items():
            version = version_of(sid)
            cached = elements.get((tid, sid))
            if cached is not None:
                if cached[0] == version:
                    out[sid] = cached[1]
                    continue
                invalidated += 1
            compiled = CompiledElements.from_columns(*cols)
            elements[(tid, sid)] = (version, compiled)
            self._compiled_tids.setdefault(sid, set()).add(tid)
            out[sid] = compiled
            stale += 1
        if invalidated:
            self.invalidations += invalidated
            if METRICS.enabled:
                _M_INVALIDATED.inc(invalidated)
        if stale:
            self.misses += stale
            if METRICS.enabled:
                _M_EL_MISSES.inc(stale)
        return out

    def warm_tag(self, tid: int, nodes=(), *, push: bool = False) -> None:
        """Bulk-warm a tag's compiled element (and push) state.

        The cold-compile fast path: one :meth:`bulk_elements` pass warms
        every segment's element columns, and with ``push=True`` the
        optimization-(i) push lists of ``nodes`` (the tag's segment-list
        ER-nodes) are compiled in the same sweep.
        """
        compiled_by_sid = self.bulk_elements(tid)
        if not push:
            return
        version_of = self._index.version
        push_cache = self._push
        stale = 0
        invalidated = 0
        for node in nodes:
            sid = node.sid
            key = (tid, sid)
            iv = version_of(sid)
            nv = node._version
            cached = push_cache.get(key)
            if cached is not None:
                if cached[0] == iv and cached[1] == nv:
                    continue
                invalidated += 1
            full = compiled_by_sid.get(sid)
            if full is None:
                # Tag-list entry without index records (possible only
                # transiently); compile the empty columns through the
                # ordinary per-segment path so it is cached consistently.
                full = self.elements(tid, sid)
            push_cache[key] = (iv, nv, self.compile_push_from(full, node))
            stale += 1
        if invalidated:
            self.invalidations += invalidated
            if METRICS.enabled:
                _M_INVALIDATED.inc(invalidated)
        if stale:
            self.misses += stale
            if METRICS.enabled:
                _M_PUSH_MISSES.inc(stale)

    def push_elements(self, tid: int, node) -> CompiledPushList:
        """The optimization-(i) push list for tag ``tid`` in segment ``node``."""
        sid = node.sid
        key = (tid, sid)
        iv = self._index.version(sid)
        nv = node._version
        cached = self._push.get(key)
        if cached is not None:
            if cached[0] == iv and cached[1] == nv:
                self.hits += 1
                if METRICS.enabled:
                    _M_PUSH_HITS.inc()
                return cached[2]
            self.invalidations += 1
            if METRICS.enabled:
                _M_INVALIDATED.inc()
        self.misses += 1
        if METRICS.enabled:
            _M_PUSH_MISSES.inc()
        compiled = self.compile_push_from(self.elements(tid, sid), node)
        self._push[key] = (iv, nv, compiled)
        return compiled

    @staticmethod
    def compile_push_from(full: CompiledElements, node) -> CompiledPushList:
        """Optimization-(i) filter over already compiled element columns.

        An element survives iff the first child insertion point past its
        start lies inside its span — :func:`~repro.joins.kernels.push_kept`
        advances a single cursor over the (sorted) child lps, one
        O(n + m) merge scan.  When every element survives, the compiled
        columns are shared outright (compiled artifacts are immutable;
        the join's trim path already copies on write).
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
        sid = node.sid
        key = (tid, sid)
        iv = self._index.version(sid)
        nv = node._version
        cached = self._spans.get(key)
        if cached is not None:
            if cached[0] == iv and cached[1] == nv:
                self.hits += 1
                if METRICS.enabled:
                    _M_EL_HITS.inc()
                return cached[2]
            self.invalidations += 1
            if METRICS.enabled:
                _M_INVALIDATED.inc()
        self.misses += 1
        if METRICS.enabled:
            _M_EL_MISSES.inc()
        spans = span_offsets(self.elements(tid, sid), node)
        self._spans[key] = (iv, nv, spans)
        return spans

    def segment_list(self, tid: int) -> CompiledSegmentList:
        """The compiled segment list (``SL`` of Lazy-Join) for ``tid``."""
        taglist = self._log.taglist
        version = taglist.version(tid)
        cached = self._segments.get(tid)
        if cached is not None:
            if cached[0] == version:
                self.hits += 1
                if METRICS.enabled:
                    _M_SEG_HITS.inc()
                return cached[1]
            self.invalidations += 1
            if METRICS.enabled:
                _M_INVALIDATED.inc()
        self.misses += 1
        if METRICS.enabled:
            _M_SEG_MISSES.inc()
        compiled = CompiledSegmentList(taglist.segments_for(tid))
        self._segments[tid] = (version, compiled)
        return compiled

    def cached_join(self, tid_a: int, tid_d: int, axis: str) -> tuple | None:
        """The stored ``tid_a // tid_d`` answer, if still whole.

        Whole means *both* tags' versions are unchanged since the store —
        then no chunk can have moved (see the module docstring).  Returns
        ``(results tuple, stack depth)``, or ``None`` on a miss; a stale
        entry stays in place, because most of its chunks are still good
        (:meth:`join_chunks`).
        """
        cached = self._joins.get((tid_a, tid_d, axis))
        if cached is not None:
            taglist = self._log.taglist
            if (
                cached[0] == taglist.version(tid_a)
                and cached[1] == taglist.version(tid_d)
            ):
                self.hits += 1
                if METRICS.enabled:
                    _M_JOIN_HITS.inc()
                return cached[2], cached[3]
            self.invalidations += 1
            if METRICS.enabled:
                _M_INVALIDATED.inc()
        self.misses += 1
        if METRICS.enabled:
            _M_JOIN_MISSES.inc()
        return None

    def join_chunks(self, tid_a: int, tid_d: int, axis: str) -> dict:
        """The per-D-segment chunks last stored for this join (maybe stale).

        ``{sid: (index_version, depth, pairs)}``; a chunk is good while
        ``index_version`` is still :meth:`ElementIndex.version` of its sid.
        """
        cached = self._joins.get((tid_a, tid_d, axis))
        return {} if cached is None else cached[4]

    def store_join(
        self, tid_a: int, tid_d: int, axis: str,
        results: tuple, depth: int, chunks: dict,
    ) -> None:
        """Publish a join answer and its chunks under the current versions.

        One assignment of one immutable entry: a concurrent reader of the
        same (pinned, hence unchanging) replica sees the old entry or the
        new one, both valid.
        """
        taglist = self._log.taglist
        self._joins[(tid_a, tid_d, axis)] = (
            taglist.version(tid_a),
            taglist.version(tid_d),
            results,
            depth,
            chunks,
        )

    def lp_of(self, sid: int) -> int:
        """The (immutable) local position of segment ``sid``."""
        lp = self._lps.get(sid)
        if lp is None:
            lp = self._log.sbtree.lookup(sid).lp
            self._lps[sid] = lp
        return lp

    # ------------------------------------------------------------------
    # eager invalidation (lazy version checks already guarantee safety;
    # this reclaims memory for segments that will never be queried again)

    def drop_segment(self, sid: int) -> int:
        """Forget all compiled state for a removed/repacked segment."""
        dropped = 0
        for tid in self._compiled_tids.pop(sid, ()):
            dropped += self._elements.pop((tid, sid), None) is not None
            dropped += self._push.pop((tid, sid), None) is not None
            dropped += self._spans.pop((tid, sid), None) is not None
        if self._lps.pop(sid, None) is not None:
            dropped += 1
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
                "elements": len(self._elements),
                "push_lists": len(self._push),
                "span_columns": len(self._spans),
                "segment_lists": len(self._segments),
                "lps": len(self._lps),
                "join_results": len(self._joins),
                "join_chunks": sum(len(e[4]) for e in self._joins.values()),
            },
        }

    def approximate_bytes(self) -> int:
        """Rough size of the compiled state: 8 bytes per stored scalar."""
        total = 0
        # Three columns and the record references per compiled object; a
        # one-tag segment's all-tags entry, and the span columns of a
        # segment whose labels are its offsets, are the per-tag object
        # again.  Span columns of their own add two offset columns.
        counted = set()
        for _, compiled in self._elements.values():
            if id(compiled) not in counted:
                counted.add(id(compiled))
                total += 8 * 4 * len(compiled)
        for _, _, spans in self._spans.values():
            if id(spans) not in counted:
                total += 8 * 2 * len(spans)
        for _, _, push in self._push.values():
            total += 8 * 3 * len(push)
        for _, compiled_list in self._segments.values():
            total += 8 * 2 * len(compiled_list.entries)
        for _, _, results, _, chunks in self._joins.values():
            # two 4-field records per pair, one more reference to it from
            # its chunk, three scalars per chunk
            total += 8 * 9 * len(results) + 8 * 3 * len(chunks)
        total += 8 * len(self._lps)
        return total
