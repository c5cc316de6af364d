"""The tag-list: inverted map from tag ids to segment paths (Section 3.2).

For every tag id the tag-list keeps the list of segments containing at least
one element with that tag, plus the number of element occurrences per
segment, which decides when a deletion may drop the segment.  The list holds
the live :class:`ERNode` of each segment, so each entry's ER-tree *path*
(the sid chain from the dummy root, Fig. 4) is ``node.path`` — paths let the
Lazy-Join algorithm compute `P_T^S` (the local position of the stack
segment's child leading toward the descendant segment) without walking the
ER-tree.  The counts live beside the list, ``{sid: count}`` per tag, and
their keys are exactly the list's sids.

Lists are ordered by the ascending *global position* of their segments, a
segment before the segments inside it (ER-tree pre-order).  Relative gp
order between surviving segments is never changed by an update (shifts are
order-preserving), so in LD mode every insertion and removal finds its
place by bisecting the list on ``node.gp`` — one binary search per tag of
the segment, no key list rebuilt, no scan by sid.  In LS mode segments are
appended unsorted and :meth:`TagList.finalize` sorts every touched list
just before querying.

The tag-list keeps no version counters and no log of its edits: no
segment enters or leaves a list, nor changes its count, without its
elements being written, so what is memoised from the lists (the join memo,
:mod:`repro.core.readpath`) is kept current from the element index's write
journal alone.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Mapping
from operator import attrgetter

from repro.core.ertree import ERNode
from repro.errors import UpdateError

__all__ = ["TagRegistry", "TagList"]

_node_gp = attrgetter("gp")


class TagRegistry:
    """Bidirectional tag name ↔ tag id map.

    Tag ids are dense integers assigned in first-seen order, mirroring the
    system-generated ``tid`` of Section 3.4.
    """

    def __init__(self):
        self._by_name: dict[str, int] = {}
        self._by_id: list[str] = []

    def intern(self, name: str) -> int:
        """Return the tag id for ``name``, assigning one on first use."""
        tid = self._by_name.get(name)
        if tid is None:
            tid = len(self._by_id)
            self._by_name[name] = tid
            self._by_id.append(name)
        return tid

    def tid_of(self, name: str) -> int | None:
        """The tag id for ``name``, or ``None`` when never seen."""
        return self._by_name.get(name)

    def name_of(self, tid: int) -> str:
        """The tag name for ``tid``."""
        return self._by_id[tid]

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name


class TagList:
    """The inverted tag → segment-path lists, with LD/LS maintenance."""

    def __init__(self, *, dynamic: bool = True):
        self._dynamic = dynamic
        # Each tag's segment list, the SL Lazy-Join merges, read in place:
        # every insert and remove below applies to it, so no reader
        # rebuilds or copies it.  A tag with no segment has no list.
        self._nodes: dict[int, list[ERNode]] = {}
        # Each tag's occurrence count per segment; the keys are the sids
        # of the tag's list.
        self._counts: dict[int, dict[int, int]] = {}
        # Tags whose lists LS appends left unsorted (see finalize).
        self._unsorted: set[int] = set()
        # Total occurrences per tag across all segments, maintained
        # incrementally — the O(1) selectivity probe join planning uses
        # instead of counting through the element index.
        self._totals: dict[int, int] = {}

    def total_count(self, tid: int) -> int:
        """Total element occurrences of ``tid`` across all segments, O(1).

        Maintained incrementally by :meth:`add_segment` /
        :meth:`remove_occurrences` — the selectivity estimate join planning
        reads instead of probing the element index (which stays
        authoritative for invariant checks).
        """
        return self._totals.get(tid, 0)

    # ------------------------------------------------------------------
    # updates

    def add_segment(self, node: ERNode, counts: Mapping[int, int]) -> None:
        """Record that segment ``node`` holds ``counts[tid]`` elements of
        each ``tid``: one call per segment, whatever its tags.

        LD keeps each list sorted by segment gp (binary insertion); LS
        appends and defers sorting to :meth:`finalize`.
        """
        if min(counts.values(), default=1) <= 0:
            raise UpdateError(f"tag counts must be positive, got {dict(counts)}")
        lists, tallies, totals = self._nodes, self._counts, self._totals
        gp, sid, dynamic = node.gp, node.sid, self._dynamic
        for tid, count in counts.items():
            nodes = lists.get(tid)
            if nodes is None:
                nodes = lists[tid] = []
                tallies[tid] = {sid: count}
            else:
                tallies[tid][sid] = count
            if dynamic:
                # A live segment sharing this gp is an ancestor whose head
                # was cut back to here (repack re-adds under one): it stays
                # first.
                nodes.insert(bisect_right(nodes, gp, key=_node_gp), node)
            else:
                nodes.append(node)
                self._unsorted.add(tid)
            totals[tid] = totals.get(tid, 0) + count

    def remove_occurrences(self, node: ERNode, counts: Mapping[int, int]) -> None:
        """Subtract ``counts[tid]`` occurrences of each ``tid`` from segment
        ``node``: one call per segment, whatever its tags.

        Drops the segment from a tag's list once its count reaches zero —
        the rule of Section 3.3: "a path has to be deleted only if no more
        elements with that tag are contained in the segment after the
        deletion".  ``node`` may be a segment the ER-tree has just deleted
        (see :class:`~repro.core.ertree.RemovalReport`).

        The count is a dict read.  A drop finds the node by bisecting on gp
        and stepping over ties.  Segments tie when a segment's head was cut
        back to its first child's start, and at the start of a hole just
        closed, where the deleted segments sit until this method drops
        them: a tie run is at most the nesting depth plus the segments
        deleted with ``node``.  An unfinalized LS list is unsorted and has
        to be walked.
        """
        sid = node.sid
        for tid, removed in counts.items():
            if removed <= 0:
                continue
            tallies = self._counts.get(tid)
            if tallies is None:
                raise UpdateError(f"no tag-list for tid {tid}")
            held = tallies.get(sid)
            if held is None:
                raise UpdateError(f"segment {sid} not in tag-list of tid {tid}")
            if held < removed:
                raise UpdateError(
                    f"removing {removed} occurrences of tid {tid} from segment "
                    f"{sid}, only {held} recorded"
                )
            remaining = self._totals[tid] - removed
            if remaining > 0:
                self._totals[tid] = remaining
            else:
                del self._totals[tid]
            if held > removed:
                tallies[sid] = held - removed
                continue
            nodes = self._nodes[tid]
            unsorted = tid in self._unsorted
            first = 0 if unsorted else bisect_left(nodes, node.gp, key=_node_gp)
            del nodes[nodes.index(node, first)], tallies[sid]
            if not nodes:
                del self._nodes[tid], self._counts[tid]
                self._unsorted.discard(tid)

    def finalize(self) -> None:
        """Sort any LS-mode lists left unsorted by appends."""
        for tid in self._unsorted:
            self._nodes[tid].sort(key=_node_gp)
        self._unsorted.clear()

    def unsort(self, rng=None) -> None:
        """Shuffle every list and mark it unsorted (benchmark support).

        Re-creates the LS "tag-list kept unsorted" state so the cost of
        :meth:`finalize` can be measured repeatedly without rebuilding the
        whole database.  ``rng`` is a ``random.Random``; when omitted the
        lists are reversed instead of shuffled (deterministic).
        """
        for tid, nodes in self._nodes.items():
            if rng is None:
                nodes.reverse()
            else:
                rng.shuffle(nodes)
            self._unsorted.add(tid)

    # ------------------------------------------------------------------
    # queries

    @property
    def awaiting_sort(self) -> bool:
        """True while some LS list has appends :meth:`finalize` must sort."""
        return bool(self._unsorted)

    def nodes(self, tid: int) -> list[ERNode]:
        """``tid``'s segment list (``SL_A`` / ``SL_D``), the one Lazy-Join
        merges, in ascending gp order once sorted: the live list — read it,
        never mutate it."""
        return self._nodes.get(tid, [])

    def counts(self, tid: int) -> Mapping[int, int]:
        """``{sid: occurrences}`` of ``tid``, one key per segment of its
        list: the live map — read it, never mutate it."""
        return self._counts.get(tid, {})

    def tids(self) -> Iterator[int]:
        """Tag ids that currently have at least one segment."""
        return iter(self._nodes)

    # ------------------------------------------------------------------
    # size accounting (Fig. 11(a))

    def entry_count(self) -> int:
        """Total number of (tag, segment) entries across all lists."""
        return sum(map(len, self._nodes.values()))

    def approximate_bytes(self) -> int:
        """Estimated in-memory size: 8 bytes per stored id/count.

        Each entry stores its full path plus the occurrence count; each list
        head stores its tag id — the layout of Fig. 4 and the source of the
        O(T·N²) worst case of Proposition 1.
        """
        total = 8 * len(self._nodes)
        for nodes in self._nodes.values():
            for node in nodes:
                total += 8 * (len(node.path) + 1)
        return total

    def check_invariants(self) -> None:
        """Each tag's count keys are its list's sids, its total is their
        sum, and a sorted list is gp-ascending."""
        tids = self._nodes.keys()
        assert tids == self._counts.keys() == self._totals.keys(), (
            "tags out of step"
        )
        assert self._unsorted <= tids, "empty list marked unsorted"
        for tid, nodes in self._nodes.items():
            counts = self._counts[tid]
            sids = [node.sid for node in nodes]
            assert len(sids) == len(counts) and set(sids) == counts.keys(), (
                f"count map of tid {tid} out of step with its segment list"
            )
            assert self._totals[tid] == sum(counts.values()), (
                f"running total of tid {tid} != its counts' sum"
            )
            gps = [node.gp for node in nodes]
            assert tid in self._unsorted or gps == sorted(gps), (
                f"segment list of tid {tid} out of gp order"
            )
