"""The compiled read path: version-keyed caches for the query-side hot loop.

The paper's bargain is that updates stay cheap because queries derive what
they need on demand — but deriving the *same* thing on every call is waste,
not laziness.  Between two updates, the structures a join reads are
immutable, and the service layer's epoch publishing (``repro.service.
snapshot``) makes that window explicit: a published buffer is never
mutated, so anything compiled from it stays valid for the epoch's lifetime.
This module compiles the read-side layouts Lazy-Join touches per call and
memoizes them under *per-structure version keys*, and the answer memos
under the element index's write journal.  Element columns are not
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
- **answers** — one table of :class:`PathMemo` entries, each laid out
  as twig memo levels: per level, sid-ascending parallel ``(sids,
  entries)`` (empty entries left out), and the answer, a read-only
  sequence over the output level's entries in sid order, handed out
  uncopied.  A structural join ``A // D`` is a one-level memo (its key
  :func:`join_key`) whose entry per D-segment is that segment's pairs
  tuple.  An entry depends on its segment's own elements and on the
  A-elements of its ER-ancestors that span its branch point; labels are
  immutable, inserts add leaf segments, and a remove cannot delete such
  an ancestor element without deleting the segment — so an entry is good
  exactly while the element index's journal has not named its segment
  (DESIGN.md §4e).  The join is a hit while no sid written since the
  memo's journal position is a D-segment now or holds an entry;
  otherwise it re-merges those sids alone and :func:`patch_level` puts
  each entry in its place.  A twig pattern's memo (a path's too: a path
  is a twig with no branch) is keyed by the pattern's preorder and holds
  per pattern node and segment the elements that survive
  (:mod:`repro.twig.memo`).  A written segment is recomputed, and in its
  ER-ancestors only the *spine* — the elements around its branch point
  (Proposition 3) — is re-checked.  For that the cache keeps each
  block's **parent rows** (per element, the row of the innermost
  enclosing element of the same segment) and, for each segment dropped
  lately, its parent sid and local position.  A journal trimmed past a
  memo makes it a miss.

The table keeps the :data:`MEMOS_KEPT` entries stored last.

There is one regime: every lookup memoises.  :meth:`ReadPathCache.clear`
is the "cold" lever — it drops everything derived and forces the same
recompilation through the same code; element blocks are not its to drop.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Sequence
from itertools import accumulate
from typing import NamedTuple

from repro.core import element_index
from repro.core.element_index import CompiledElements
from repro.joins.kernels import push_kept

__all__ = [
    "CompiledPushList",
    "PathMemo",
    "ReadPathCache",
    "join_key",
    "patch_level",
]

#: Answer memos kept per cache (as many as ``parse_twig`` memoises).
MEMOS_KEPT = 256


def join_key(tid_a: int, tid_d: int, axis: str) -> tuple:
    """The memo key of ``tid_a // tid_d``: a twig key is a tuple of node
    tuples, so one led by a string never collides with it."""
    return ("join", tid_a, tid_d, axis)


def patch_level(sids, entries, sid: int, entry):
    """Put ``entry`` in segment ``sid``'s place of one memo level, the
    sid-ascending parallel ``(sids, entries)`` (copies, being refreshed);
    an empty ``entry`` takes ``sid`` out.  Returns the entry it replaced,
    ``()`` when there was none."""
    i = bisect_left(sids, sid)
    if i < len(sids) and sids[i] == sid:
        old = entries[i]
        if entry:
            entries[i] = entry
        else:
            del sids[i], entries[i]
        return old
    if entry:
        sids.insert(i, sid)
        entries.insert(i, entry)
    return ()


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


def parent_rows(block) -> array:
    """Per row of ``block``, the row of its innermost enclosing element in
    the same segment, or ``-1``: one stack pass over the start-ordered
    rows (elements of one segment nest or are disjoint).  Containment is
    strict, as in the structural joins: an element starting where another
    starts does not enclose it."""
    parents = array("q", [-1]) * len(block)
    starts, ends = block.starts, block.ends
    stack: list[int] = []
    for row, start in enumerate(starts):
        while stack and ends[stack[-1]] <= start:
            stack.pop()
        up = len(stack) - 1
        while up >= 0 and starts[stack[up]] == start:
            up -= 1
        if up >= 0:
            parents[row] = stack[up]
        stack.append(row)
    return parents


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


class PathMemo(NamedTuple):
    """One stored answer: ``levels[k]`` sid-ascending parallel ``(sids,
    entries)``, ``entries[i]`` segment ``sids[i]``'s rows at level ``k``
    — a twig pattern's elements surviving at its node ``k``, start-sorted,
    or a join's pairs with a descendant in that segment (its one level);
    ``answer`` chains the output level's.  Built when the element index's
    journal stood at ``position``.  Never mutated."""

    position: int
    levels: list
    answer: Sequence


class ReadPathCache:
    """Version-keyed memo of compiled read-path state for one database.

    Owned by a :class:`~repro.core.database.LazyXMLDatabase`; each epoch
    buffer has its own instance (a clone rebuilds from scratch), and an
    op replayed onto a buffer names the segments it writes in the element
    index's write journal like any write, so a buffer's warm state
    survives publishes untouched except where ops landed.
    """

    def __init__(self, log, index):
        self._log = log
        self._index = index
        # sid -> {tid: (index_version, node_version, CompiledPushList)}
        self._push: dict[int, dict[int, tuple[int, int, CompiledPushList]]] = {}
        # sid -> {tid: (index_version, node_version, gp-free
        #   CompiledElements)}; tid None = all tags
        self._spans: dict[int, dict[int | None, tuple]] = {}
        # join_key(...) or a twig pattern's preorder ((tid, axis,
        # position, value, shape), ...) -> its PathMemo, oldest stored first
        self._memos: dict[tuple, PathMemo] = {}
        # sid -> (index version, parent rows of its block)
        self._parents: dict[int, tuple[int, array]] = {}
        # sid -> (parent sid, lp) of a dropped segment, oldest first; as
        # many as the element index's journal holds sids
        self._vanished: dict[int, tuple[int, int]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def clear(self) -> None:
        """Drop all compiled state (counters are kept)."""
        self._push.clear()
        self._spans.clear()
        self._memos.clear()
        self._parents.clear()

    # ------------------------------------------------------------------
    # compiled lookups

    def elements(self, tid: int | None, sid: int) -> CompiledElements:
        """Segment ``sid``'s elements of tag ``tid`` (``None``: of every
        tag, what a wildcard step reads): the element index's own view."""
        return self._index.block(sid).tag(tid)

    def _versioned(self, table: dict, tid, node, compile_from):
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
                return cached[2]
            self.invalidations += 1
        self.misses += 1
        compiled = compile_from(self.elements(tid, sid), node)
        held[tid] = (iv, nv, compiled)
        return compiled

    def push_elements(self, tid: int, node) -> CompiledPushList:
        """The optimization-(i) push list for tag ``tid`` in segment ``node``."""
        return self._versioned(self._push, tid, node, self.compile_push_from)

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
        return self._versioned(self._spans, tid, node, span_offsets)

    def parent_rows(self, sid: int) -> array:
        """:func:`parent_rows` of segment ``sid``'s block, kept while the
        block stands."""
        version = self._index.version(sid)
        held = self._parents.get(sid)
        if held is None or held[0] != version:
            held = self._parents[sid] = (version, parent_rows(self._index.block(sid)))
        return held[1]

    def vanished(self, sid: int) -> tuple[int, int] | None:
        """``(parent sid, lp)`` of dropped segment ``sid``, or ``None``
        once forgotten (or never dropped)."""
        return self._vanished.get(sid)

    def memo(self, key: tuple) -> PathMemo | None:
        """The memo last stored under ``key``, current or not."""
        return self._memos.get(key)

    def store(self, key: tuple, memo: PathMemo) -> None:
        """Publish ``memo`` under ``key`` as the newest, dropping the oldest
        past :data:`MEMOS_KEPT` (safe for readers storing at once)."""
        memos = self._memos
        memos.pop(key, None)
        memos[key] = memo
        if len(memos) > MEMOS_KEPT:
            for stale in list(memos)[:-MEMOS_KEPT]:
                memos.pop(stale, None)

    # ------------------------------------------------------------------
    # eager invalidation (lazy version checks already guarantee safety;
    # this reclaims memory for segments that will never be queried again)

    def drop_segment(self, node) -> int:
        """Forget all compiled state for a removed/repacked segment, and
        its version counter, and note where it hung (:meth:`vanished`)."""
        sid = node.sid
        self._index.forget(sid)
        self._parents.pop(sid, None)
        vanished = self._vanished
        vanished[sid] = (node.parent.sid, node.lp)
        if len(vanished) >= 2 * element_index.JOURNAL_KEPT:
            for stale in list(vanished)[: element_index.JOURNAL_KEPT]:
                del vanished[stale]
        dropped = len(self._push.pop(sid, ())) + len(self._spans.pop(sid, ()))
        self.invalidations += dropped
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
                "memos": len(self._memos),
                "memo_entries": sum(
                    len(sids)
                    for memo in self._memos.values()
                    for sids, _ in memo.levels
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
        for memo in self._memos.values():
            # a reference per row (a record, or a join's pair); a sid and
            # an entry per segment
            for sids, entries in memo.levels:
                total += 8 * (2 * len(sids) + sum(map(len, entries)))
        for _, parents in self._parents.values():
            total += 8 * len(parents)
        return total
