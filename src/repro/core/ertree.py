"""The ER-tree (sEgment-Relationship tree) and the Fig. 5/7 update algorithms.

The ER-tree is the leaf level of the SB-tree: one node per segment, children
ordered by global position, the dummy root (sid 0) spanning the whole super
document.  All updates are expressed on it in the paper's terms — an
insertion or removal is just a ``(global position, length)`` pair.

Two deliberate deviations from the paper's pseudocode, both forced by text
editing semantics (discussed in DESIGN.md):

1. **Shift conditions are inclusive.**  Fig. 5 shifts nodes with
   ``m.gp > new.gp``; inserting *at* an existing segment's first character
   must shift that segment too, so we shift ``m.gp >= new.gp``.  Symmetrically
   for removal (``m.gp >= seg.gp + seg.l``).
2. **Removal recursion runs before the global shift.**  Fig. 7 shifts global
   positions first and then classifies children against the removed span; a
   segment that started *after* the removed span would, post-shift, appear to
   overlap it and be misclassified.  Running the case analysis on pre-shift
   coordinates and shifting afterwards preserves the intended semantics.

Removal also produces a :class:`RemovalReport` — the bookkeeping Section 3.3
requires so the element index and tag-list can be fixed up afterwards: every
fully deleted segment, and for every partially affected segment the removed
interval in that segment's *local* coordinate space.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import islice
from operator import attrgetter

from repro.core.segment import DUMMY_ROOT_SID, SpanRelation, relate
from repro.errors import InvalidSegmentError, SegmentNotFoundError

__all__ = ["ERNode", "ERTree", "RemovalReport", "PartialRemoval"]

# Child lists are sorted by gp and hold live nodes: every per-update lookup
# bisects them in place instead of rebuilding a key list.
_node_gp = attrgetter("gp")


class ERNode:
    """One segment in the ER-tree.

    Attributes mirror the SB-tree leaf record of Fig. 2: global position
    ``gp``, current ``length``, immutable local position ``lp``, parent
    pointer and children sorted ascending by ``gp``.  ``path`` is the tuple
    of sids from the dummy root down to this node (inclusive) — exactly what
    the tag-list stores; it is immutable because insertion always adds a leaf
    and deletion never re-parents survivors.
    """

    __slots__ = (
        "sid", "gp", "length", "lp", "parent", "children", "path",
        "_tombstones", "_version", "_rp",
    )

    def __init__(
        self,
        sid: int,
        gp: int,
        length: int,
        lp: int,
        parent: "ERNode | None",
    ):
        self.sid = sid
        self.gp = gp
        self.length = length
        self.lp = lp
        self.parent = parent
        self.children: list[ERNode] = []
        self._tombstones: list[tuple[int, int]] = []
        # Read-path version key: bumped whenever anything the compiled
        # coordinate-mapping state depends on changes — own length, the
        # child list, a child's length, tombstones.  Global position shifts
        # do NOT bump it (nothing compiled depends on gp).
        self._version = 0
        self._rp: tuple | None = None  # memoized compiled state, see _compiled
        if parent is None:
            self.path: tuple[int, ...] = (sid,)
        else:
            self.path = parent.path + (sid,)

    @property
    def end(self) -> int:
        """One past the segment's last character: ``gp + length``."""
        return self.gp + self.length

    @property
    def depth(self) -> int:
        """Number of ancestor segments (0 for the dummy root)."""
        return len(self.path) - 1

    def iter_subtree(self) -> Iterator["ERNode"]:
        """Pre-order iteration over this node and all descendants."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    # ------------------------------------------------------------------
    # virtual ↔ actual coordinate mapping
    #
    # Element labels (and child ``lp`` values) live in the segment's
    # *virtual* local space: offsets into its original text, never rewritten
    # by updates — the paper's immutability guarantee.  Partial removals
    # punch holes into that text; the holes are remembered as *tombstones*
    # (disjoint, sorted virtual intervals), which is what keeps the mapping
    # between immutable labels and actual text offsets exact.  The paper
    # leaves this reconstruction unspecified; DESIGN.md discusses it.

    def tombstones(self) -> list[tuple[int, int]]:
        """Removed virtual intervals of this segment's own text (sorted)."""
        return list(self._tombstones)

    def _touch(self) -> None:
        """Invalidate the compiled read state (O(1): bump + drop)."""
        self._version += 1
        self._rp = None

    def _compiled(self) -> tuple:
        """Memoized read-path state, rebuilt lazily after :meth:`_touch`.

        ``(events, child_lps, child_len_prefix, tomb_starts, tomb_ends,
        tomb_removed_prefix)`` — everything :meth:`to_local` /
        :meth:`to_global` need, precomputed once per version instead of
        per call.  Nothing here depends on ``gp``, so global-position
        shifts leave the compiled state valid.
        """
        rp = self._rp
        if rp is None:
            children = self.children
            lps = [child.lp for child in children]
            len_prefix = [0] * (len(children) + 1)
            acc = 0
            for i, child in enumerate(children):
                acc += child.length
                len_prefix[i + 1] = acc
            t_starts = []
            t_ends = []
            removed_prefix = [0]
            acc = 0
            for t_start, t_end in self._tombstones:
                t_starts.append(t_start)
                t_ends.append(t_end)
                acc += t_end - t_start
                removed_prefix.append(acc)
            rp = (
                self._build_events(),
                lps,
                len_prefix,
                t_starts,
                t_ends,
                removed_prefix,
            )
            self._rp = rp
        return rp

    def _add_tombstone(self, start: int, end: int) -> None:
        """Record the virtual interval [start, end) as removed (merging)."""
        if start >= end:
            return
        merged: list[tuple[int, int]] = []
        placed = False
        for t_start, t_end in self._tombstones:
            if t_end < start or t_start > end:
                if not placed and t_start > end:
                    merged.append((start, end))
                    placed = True
                merged.append((t_start, t_end))
            else:
                start = min(start, t_start)
                end = max(end, t_end)
        if not placed:
            merged.append((start, end))
            merged.sort()
        self._tombstones = merged

    def to_local(self, gp: int) -> int:
        """Map an actual global offset inside this segment to virtual local.

        Virtual local coordinates index the segment's *original* text:
        characters contributed by descendant segments do not count, and
        characters deleted by partial removals still do.  An offset that
        falls strictly inside a child segment maps to that child's insertion
        point (``child.lp``); an offset at a removed hole maps to the hole's
        virtual start (the minimal preimage).
        """
        if not (self.gp <= gp <= self.end):
            raise InvalidSegmentError(
                f"offset {gp} outside segment {self.sid} span "
                f"[{self.gp}, {self.end})"
            )
        if not self._tombstones:
            # No holes: the answer follows from the last child starting at
            # or before the offset — inside it collapses to its insertion
            # point, past it own characters resume at ``child.lp`` — so one
            # bisect replaces compiling and scanning the event list.
            idx = bisect_right(self.children, gp, key=_node_gp)
            if not idx:
                return gp - self.gp
            child = self.children[idx - 1]
            return child.lp + max(0, gp - child.end)
        actual = self.gp  # actual offset reached so far
        virtual = 0
        events = self._events()
        for position, kind, size in events:
            # Own characters between `virtual` and this event.
            available = position - virtual
            if actual + available >= gp:
                return virtual + (gp - actual)
            actual += available
            virtual = position
            if kind == "child":
                if actual + size > gp:
                    # Strictly inside the child: collapse to its lp.
                    return virtual
                actual += size
            else:  # tombstone: consumes virtual space, no actual characters
                virtual += size
        return virtual + (gp - actual)

    def to_global(self, local: int, *, count_ties: bool = True) -> int:
        """Map a virtual local coordinate back to an actual global offset.

        Shifts the virtual offset right by the length of every child
        segment inserted before it and left by every tombstone before it.

        ``count_ties`` decides children inserted exactly *at* ``local``:
        with ``True`` (the default) their text precedes the position — the
        right reading when ``local`` addresses the character at that offset
        (element starts).  With ``False`` they follow it — the right reading
        for end-exclusive element *end* offsets, where a child inserted at
        the element's one-past-the-end position lies outside the element.

        Child lps are ascending in child order but not strictly (several
        children may share an insertion point), so ties are resolved by
        bisect side: ``bisect_right`` counts them, ``bisect_left`` does not.
        """
        _, lps, len_prefix, t_starts, t_ends, removed_prefix = self._compiled()
        # virtual_own_length(), from the compiled prefix sums: O(1), not a
        # walk over the children on every call.
        if not (0 <= local <= self.length - len_prefix[-1] + removed_prefix[-1]):
            raise InvalidSegmentError(
                f"local offset {local} outside segment {self.sid} "
                f"(virtual own length {self.virtual_own_length()})"
            )
        idx = bisect_left(t_starts, local)
        removed = removed_prefix[idx]
        if idx and t_ends[idx - 1] > local:
            removed -= t_ends[idx - 1] - local
        offset = local - removed
        cut = bisect_right(lps, local) if count_ties else bisect_left(lps, local)
        return self.gp + offset + len_prefix[cut]

    def global_offsets(self, locals_, *, count_ties: bool = True):
        """Column form of :meth:`to_global`, minus ``gp``.

        ``array('q')`` of ``to_global(v, count_ties=...) - self.gp`` for
        each ``v`` — a function of the child list, child lengths and
        tombstones only, so it stays valid exactly while ``_version``
        does, through any number of ``gp`` shifts.  Values must be label
        offsets of this segment (no range check).  A segment with neither
        children nor tombstones maps every offset to itself: ``locals_``
        is returned as is, for the caller to share.
        """
        _, lps, len_prefix, t_starts, t_ends, removed_prefix = self._compiled()
        if not lps and not t_starts:
            return locals_
        cut = bisect_right if count_ties else bisect_left
        if not t_starts:
            return array("q", [v + len_prefix[cut(lps, v)] for v in locals_])
        out = array("q")
        for v in locals_:
            idx = bisect_left(t_starts, v)
            removed = removed_prefix[idx]
            if idx and t_ends[idx - 1] > v:
                removed -= t_ends[idx - 1] - v
            out.append(v - removed + len_prefix[cut(lps, v)])
        return out

    def _events(self) -> list[tuple[int, str, int]]:
        """Memoized :meth:`_build_events` (see :meth:`_compiled`)."""
        return self._compiled()[0]

    def _build_events(self) -> list[tuple[int, str, int]]:
        """Children and tombstones merged by virtual position.

        Children sort before a tombstone starting at the same virtual
        offset, mirroring ``to_global``'s reading that a child inserted at
        ``v`` precedes the (removed) character at ``v``.

        A child's ``lp`` can sit strictly *inside* a tombstone: two
        removals flanking the child's insertion point leave touching
        holes, and :meth:`_add_tombstone` merges touching intervals.  The
        scan in :meth:`to_local` needs events in interleaved order, so
        such tombstones are split at every interior child lp.
        """
        events = [(child.lp, "child", child.length) for child in self.children]
        lps = sorted({child.lp for child in self.children})
        for t_start, t_end in self._tombstones:
            start = t_start
            for lp in lps:
                if start < lp < t_end:
                    events.append((start, "tomb", lp - start))
                    start = lp
            events.append((start, "tomb", t_end - start))
        events.sort(key=lambda e: (e[0], e[1]))  # "child" < "tomb"
        return events

    def virtual_own_length(self) -> int:
        """Own length in virtual coordinates (tombstoned characters count)."""
        own = self.length - sum(child.length for child in self.children)
        return own + sum(t_end - t_start for t_start, t_end in self._tombstones)

    def __repr__(self) -> str:
        return (
            f"ERNode(sid={self.sid}, gp={self.gp}, length={self.length}, "
            f"lp={self.lp}, children={len(self.children)})"
        )


@dataclass
class PartialRemoval:
    """A segment that survived a removal but lost some of its own characters.

    ``local_start``/``local_end`` bound the removed interval in the segment's
    local coordinate space (end-exclusive); element records of this segment
    falling entirely inside the interval must leave the element index.
    """

    sid: int
    local_start: int
    local_end: int


@dataclass
class RemovalReport:
    """Outcome of a span removal, for element-index/tag-list maintenance.

    ``removed`` holds the deleted nodes themselves, in pre-order: they are
    out of the tree, but the tag-list still has to find their entries, and
    it finds entries by node (each is left with ``gp`` at the hole's start,
    where its entries sort between the survivors on either side).
    """

    removed: list[ERNode] = field(default_factory=list)
    partials: list[PartialRemoval] = field(default_factory=list)

    @property
    def removed_sids(self) -> list[int]:
        """Sids of the fully deleted segments, in pre-order."""
        return [node.sid for node in self.removed]


class ERTree:
    """The segment-relationship tree plus the paper's update algorithms.

    ``_nodes`` is the SB-tree's sid index: every point lookup by sid
    (:meth:`node`, ``in``) reads it, and only the update algorithms below
    write it.
    """

    def __init__(self, *, sid_start: int = 1, sid_stride: int = 1):
        if sid_start < 1 or sid_stride < 1 or sid_start > sid_stride:
            raise ValueError(
                f"invalid sid namespace start={sid_start} stride={sid_stride}"
            )
        self.root = ERNode(DUMMY_ROOT_SID, gp=0, length=0, lp=0, parent=None)
        self._nodes: dict[int, ERNode] = {DUMMY_ROOT_SID: self.root}
        #: Sid namespace: this tree allocates sids from the arithmetic
        #: lattice ``start + k*stride``.  Shards use disjoint lattices so a
        #: segment id names its owning shard (``(sid-1) % stride``).
        self.sid_start = sid_start
        self.sid_stride = sid_stride
        self._next_sid = sid_start
        # depth -> number of live segments at that depth (dummy root at 0);
        # kept incrementally so max_depth is O(1) instead of a tree walk.
        self._depth_counts: dict[int, int] = {0: 1}
        self._max_depth = 0

    # ------------------------------------------------------------------
    # incremental dimension tracking (feeds PressureMonitor)

    def _track_add(self, node: ERNode) -> None:
        depth = node.depth
        self._depth_counts[depth] = self._depth_counts.get(depth, 0) + 1
        if depth > self._max_depth:
            self._max_depth = depth

    def _track_remove(self, node: ERNode) -> None:
        depth = node.depth
        remaining = self._depth_counts.get(depth, 0) - 1
        if remaining <= 0:
            self._depth_counts.pop(depth, None)
            if depth == self._max_depth:
                self._max_depth = max(self._depth_counts, default=0)
        else:
            self._depth_counts[depth] = remaining

    @property
    def max_depth(self) -> int:
        """Depth of the deepest live segment (0 = only the dummy root).

        Maintained incrementally by the update algorithms — O(1), unlike
        a full pre-order walk.
        """
        return self._max_depth

    # ------------------------------------------------------------------
    # accessors

    def __len__(self) -> int:
        """Number of segments, dummy root included."""
        return len(self._nodes)

    def __contains__(self, sid: int) -> bool:
        return sid in self._nodes

    @property
    def total_length(self) -> int:
        """Current length of the super document in characters."""
        return self.root.length

    def node(self, sid: int) -> ERNode:
        """Return the node for ``sid``; raise when unknown."""
        try:
            return self._nodes[sid]
        except KeyError:
            raise SegmentNotFoundError(sid) from None

    def nodes(self) -> Iterator[ERNode]:
        """Pre-order iteration over all nodes, dummy root first."""
        return self.root.iter_subtree()

    def innermost_segment(self, gp: int) -> ERNode:
        """The deepest segment whose span contains offset ``gp``.

        This identifies the would-be parent of a segment inserted at ``gp``:
        descend while some child's span *strictly* contains the offset
        (inserting at a segment's first or one-past-last character lands
        outside it, in its parent).
        """
        if not (0 <= gp <= self.root.length):
            raise InvalidSegmentError(
                f"offset {gp} outside super document [0, {self.root.length}]"
            )
        node = self.root
        while True:
            child = self._child_strictly_containing(node, gp)
            if child is None:
                return node
            node = child

    @staticmethod
    def _child_strictly_containing(node: ERNode, gp: int) -> ERNode | None:
        children = node.children
        idx = bisect_right(children, gp, key=_node_gp) - 1
        if idx >= 0:
            child = children[idx]
            if child.gp < gp < child.end:
                return child
        return None

    @staticmethod
    def _shift_subtrees(pending: list[ERNode], delta: int) -> None:
        """Move every node under ``pending`` by ``delta``.

        The one O(N) step the paper itself prescribes (Figs. 5/7) — but it
        is handed only the siblings at or after the update point, never the
        whole tree.  Consumes ``pending``.
        """
        while pending:
            node = pending.pop()
            node.gp += delta
            if node.children:
                pending.extend(node.children)

    # ------------------------------------------------------------------
    # insertion (Fig. 5)

    def add_segment(self, gp: int, length: int, sid: int | None = None) -> ERNode:
        """Insert a segment of ``length`` characters at global offset ``gp``.

        Implements ``AddNewSegment_Start``/``AddNewSegment`` of Fig. 5:
        shift the global position of every segment at or after ``gp``, walk
        down to the parent segment, grow every ancestor by ``length``,
        splice the new leaf into the parent's child list, and derive its
        immutable local position per Definition 2.

        Returns the new node.  ``sid`` defaults to the next system-generated
        id.
        """
        if length <= 0:
            raise InvalidSegmentError(f"segment length must be positive, got {length}")
        if not (0 <= gp <= self.root.length):
            raise InvalidSegmentError(
                f"insert position {gp} outside super document "
                f"[0, {self.root.length}]"
            )
        if sid is None:
            sid = self._next_sid
        elif sid in self._nodes:
            raise InvalidSegmentError(f"segment id {sid} already in use")
        # Advance to the first lattice point strictly past ``sid`` so an
        # explicit sid (snapshot load, replay) never collides with a future
        # allocation, while staying on this tree's sid lattice.
        if sid >= self._next_sid:
            steps = (sid + self.sid_stride - self.sid_start) // self.sid_stride
            self._next_sid = self.sid_start + steps * self.sid_stride

        # Steps 1 and 2 in one descent: at each level the siblings at or
        # after ``gp`` (inclusive — see module docstring) move right with
        # their whole subtrees, and the one child strictly containing ``gp``
        # is the next level.  Each ancestor on the way grows, and its
        # compiled read state depends on child lengths, so the whole chain
        # is touched — O(depth), the "invalidation is O(touched
        # structures)" contract.  An append finds nothing to move and no
        # child to enter after one bisect of the root's children.
        parent = self.root
        moving: list[ERNode] = []
        while True:
            parent.length += length
            parent._touch()
            children = parent.children
            idx = bisect_left(children, gp, key=_node_gp)
            moving.extend(islice(children, idx, None))
            if not idx or children[idx - 1].end <= gp:
                break
            parent = children[idx - 1]
        self._shift_subtrees(moving, length)

        # Step 3: splice the new leaf in, keeping children sorted by gp,
        # and compute its local position.  ``to_local`` implements
        # Definition 2 (subtract left-sibling lengths) generalized to
        # parents that lost characters to partial removals; on such a
        # parent it compiles the read state, so the splice re-touches it.
        new = ERNode(sid, gp=gp, length=length, lp=parent.to_local(gp), parent=parent)
        parent.children.insert(idx, new)
        parent._touch()
        self._nodes[sid] = new
        self._track_add(new)
        return new

    # ------------------------------------------------------------------
    # removal (Fig. 7)

    def remove_span(self, gp: int, length: int) -> RemovalReport:
        """Remove ``length`` characters starting at global offset ``gp``.

        Implements ``RemoveSegment_Start``/``RemoveSegment`` of Fig. 7 with
        the ordering fix described in the module docstring: classify children
        against pre-shift coordinates, then shift survivors.  Handles all of
        the paper's cases — removed span contained in a segment, containing
        whole segments, and left/right intersections — and returns the
        :class:`RemovalReport` driving element-index maintenance.
        """
        if length <= 0:
            raise InvalidSegmentError(f"removal length must be positive, got {length}")
        end = gp + length
        if gp < 0 or end > self.root.length:
            raise InvalidSegmentError(
                f"removal span [{gp}, {end}) outside super document "
                f"[0, {self.root.length})"
            )
        report = RemovalReport()
        self._remove_from(self.root, gp, length, report)
        self._close_gap(gp, end)
        for node in report.removed:
            node.gp = gp  # see RemovalReport
        return report

    def _close_gap(self, gp: int, end: int) -> None:
        """The global position pass over the survivors of ``[gp, end)``.

        Runs after the recursion (which only adjusts lengths).  A node
        starting before the hole keeps its gp; a node whose start fell
        inside the hole has its surviving content begin where the hole
        begins (this covers arbitrarily nested right-intersections, which
        Fig. 7's per-level `k.gp` update gets wrong); a node starting at or
        after the hole's end shifts left.  Per level at most two children
        met the hole and survived — the one starting at or before it and
        the one straddling its end — so the pass descends those and shifts
        the siblings after them, instead of visiting every node.
        """
        met = [self.root]
        after: list[ERNode] = []
        while met:
            children = met.pop().children
            first = max(0, bisect_right(children, gp, key=_node_gp) - 1)
            for idx in range(first, len(children)):
                child = children[idx]
                if child.gp >= end:
                    after.extend(islice(children, idx, None))
                    break
                if child.gp > gp:
                    child.gp = gp
                if child.end > gp:
                    met.append(child)
        self._shift_subtrees(after, gp - end)

    def _remove_from(
        self, node: ERNode, rm_gp: int, rm_len: int, report: RemovalReport
    ) -> None:
        """Remove ``[rm_gp, rm_gp+rm_len)``, known to lie within ``node``."""
        rm_end = rm_gp + rm_len
        # Record what this node itself loses, in virtual local coordinates.
        # When the removed span lies entirely inside one child, both bounds
        # collapse to the same insertion point and the interval is empty.
        # The interval also becomes a tombstone so immutable labels keep
        # mapping to actual text offsets (see the coordinate-mapping notes
        # on ERNode).
        local_start = node.to_local(rm_gp)
        local_end = node.to_local(rm_end)
        if local_start < local_end:
            report.partials.append(PartialRemoval(node.sid, local_start, local_end))
            node._add_tombstone(local_start, local_end)
        node.length -= rm_len
        node._touch()

        # Children are disjoint and sorted: only those from the last one
        # starting at or before the span up to its end can touch it, and the
        # ones it swallows whole are one contiguous run, ``[lo, hi)``.
        children = node.children
        first = max(0, bisect_right(children, rm_gp, key=_node_gp) - 1)
        lo = hi = first
        for idx in range(first, len(children)):
            child = children[idx]
            if child.gp >= rm_end:
                break
            rel = relate(rm_gp, rm_len, child.gp, child.length)
            if rel is SpanRelation.CONTAINED:
                # Removed span strictly inside this child: recurse whole span.
                self._remove_from(child, rm_gp, rm_len, report)
            elif rel is SpanRelation.CONTAINS:
                self._delete_subtree(child, report)
                if lo == hi:
                    lo = idx
                hi = idx + 1
            elif rel is SpanRelation.LEFT_INTERSECT:
                # Removal starts inside the child, runs past its end: clip to
                # the child's tail (Fig. 7 lines 12–14).
                self._remove_from(child, rm_gp, child.end - rm_gp, report)
            elif rel is SpanRelation.RIGHT_INTERSECT:
                # Removal covers the child's head (Fig. 7 lines 17–20): clip.
                # Its new global position comes from the final global pass.
                self._remove_from(child, child.gp, rm_end - child.gp, report)
        del children[lo:hi]

    def _delete_subtree(self, node: ERNode, report: RemovalReport) -> None:
        for sub in node.iter_subtree():
            report.removed.append(sub)
            del self._nodes[sub.sid]
            self._track_remove(sub)

    # ------------------------------------------------------------------
    # maintenance surgery (segment packing, Section 5.3 / future work)

    def collapse_subtree(self, sid: int) -> ERNode:
        """Replace segment ``sid`` and all its descendants by one fresh node.

        The new node occupies exactly the old subtree's span (same gp,
        length, lp, parent) under a fresh sid, with no children and no
        tombstones — the "collapse nested segments together" maintenance
        operation Section 5.3 suggests for reducing segment counts.  The
        caller is responsible for re-registering element records under the
        new sid (see :meth:`repro.core.database.LazyXMLDatabase.repack`).

        Returns the new node.  Collapsing the dummy root is not allowed.
        """
        old = self.node(sid)
        if old is self.root:
            raise InvalidSegmentError("cannot collapse the dummy root")
        parent = old.parent
        assert parent is not None
        for sub in old.iter_subtree():
            del self._nodes[sub.sid]
            self._track_remove(sub)
        new_sid = self._next_sid
        self._next_sid += self.sid_stride
        new = ERNode(new_sid, gp=old.gp, length=old.length, lp=old.lp, parent=parent)
        parent.children[parent.children.index(old)] = new
        parent._touch()
        self._nodes[new_sid] = new
        self._track_add(new)
        return new

    # ------------------------------------------------------------------
    # verification (used by tests)

    def check_invariants(self) -> None:
        """Verify structural invariants; ``AssertionError`` on breakage.

        Checked: children sorted by gp and pairwise disjoint, children inside
        parents, lengths at least the sum of child lengths, the registry
        matching the tree, paths consistent, and (on insert-only histories)
        Definition 2 linking lp to gp.
        """
        seen: set[int] = set()
        depth_counts: dict[int, int] = {}
        for node in self.root.iter_subtree():
            assert node.sid not in seen, f"duplicate sid {node.sid}"
            seen.add(node.sid)
            depth_counts[node.depth] = depth_counts.get(node.depth, 0) + 1
            assert self._nodes.get(node.sid) is node, "registry out of sync"
            assert node.length >= 0, f"negative length on sid {node.sid}"
            child_sum = 0
            prev_end = None
            for child in node.children:
                assert child.parent is node, "broken parent pointer"
                assert child.path == node.path + (child.sid,), "stale path"
                assert node.gp <= child.gp and child.end <= node.end, (
                    f"child {child.sid} escapes parent {node.sid}"
                )
                if prev_end is not None:
                    assert child.gp >= prev_end, (
                        f"children of {node.sid} overlap or out of order"
                    )
                prev_end = child.end
                child_sum += child.length
            assert child_sum <= node.length, (
                f"children longer than parent {node.sid}"
            )
            prev_t_end = None
            for t_start, t_end in node._tombstones:
                assert 0 <= t_start < t_end, "degenerate tombstone"
                if prev_t_end is not None:
                    assert t_start > prev_t_end, (
                        f"tombstones of {node.sid} overlap or touch unmerged"
                    )
                prev_t_end = t_end
            if node._rp is not None:
                cached = node._rp
                node._rp = None
                assert node._compiled() == cached, (
                    f"stale compiled read state on sid {node.sid}: a mutation "
                    "changed children/lengths/tombstones without _touch()"
                )
        assert seen == set(self._nodes), "registry contains orphans"
        assert depth_counts == self._depth_counts, "depth tracking out of sync"
        assert self._max_depth == max(depth_counts), "max_depth out of sync"
