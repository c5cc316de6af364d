"""The in-memory update log: ER-tree + tag-list (Section 3.2–3.3).

:class:`UpdateLog` composes the structures the paper defines — ER-tree,
SB-tree and tag-list — behind the two update entry points the paper's
model allows: *insert a segment* and *remove a span*, both given only
``(global position, length)`` plus the inserted segment's tag counts (by
tag id: the caller interns the names once, for the element index too).  The
SB-tree is asked only point questions (which node has this sid?), so its
sid index is the ER-tree's own ``{sid: node}`` registry (DESIGN.md §2).

Two maintenance modes (Section 5.1):

- ``"dynamic"`` (LD): everything is maintained on every update; the log is
  always query-ready.
- ``"static"`` (LS): updates append to the tag-list's lists unsorted;
  :meth:`prepare_for_query` sorts them just before querying.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass

from repro.core.ertree import ERNode, ERTree, RemovalReport
from repro.core.taglist import TagList, TagRegistry
from repro.errors import QueryError

__all__ = ["UpdateLog", "InsertReceipt", "LogStats"]

_MODES = ("dynamic", "static")


@dataclass
class InsertReceipt:
    """What a segment insertion produced.

    ``sid`` identifies the new segment; ``path`` is its immutable ER-tree
    path; ``parent_sid`` and ``lp`` record where it landed (Definition 2).
    """

    sid: int
    path: tuple[int, ...]
    parent_sid: int
    gp: int
    length: int
    lp: int


@dataclass
class LogStats:
    """Size snapshot of the update log (the Fig. 11(a) series)."""

    segments: int
    tag_entries: int
    sbtree_bytes: int
    taglist_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.sbtree_bytes + self.taglist_bytes


class UpdateLog:
    """ER-tree + tag-list with the paper's update algorithms."""

    def __init__(self, mode: str = "dynamic", *, sid_start: int = 1,
                 sid_stride: int = 1):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self._mode = mode
        self.ertree = ERTree(sid_start=sid_start, sid_stride=sid_stride)
        self.taglist = TagList(dynamic=mode == "dynamic")
        self.tags = TagRegistry()

    # ------------------------------------------------------------------
    # properties

    @property
    def mode(self) -> str:
        """``"dynamic"`` (LD) or ``"static"`` (LS)."""
        return self._mode

    @property
    def segment_count(self) -> int:
        """Number of live segments, dummy root excluded."""
        return len(self.ertree) - 1

    @property
    def document_length(self) -> int:
        """Current super-document length in characters."""
        return self.ertree.total_length

    # ------------------------------------------------------------------
    # updates

    def insert_segment(
        self, gp: int, length: int, tag_counts: Mapping[int, int], parent=None
    ) -> InsertReceipt:
        """Insert a segment of ``length`` characters at offset ``gp``.

        ``tag_counts`` maps tag ids (:attr:`tags`) to element occurrence
        counts inside the segment — the information the tag-list stores.
        Runs Fig. 5 on the ER-tree and updates (LD) or appends to (LS) the
        per-tag path lists, in one tag-list call.  ``parent``: as
        :meth:`~repro.core.ertree.ERTree.add_segment` takes it.
        """
        node = self.ertree.add_segment(gp, length, parent=parent)
        self.taglist.add_segment(node, tag_counts)
        assert node.parent is not None  # only the dummy root lacks a parent
        return InsertReceipt(
            sid=node.sid,
            path=node.path,
            parent_sid=node.parent.sid,
            gp=node.gp,
            length=node.length,
            lp=node.lp,
        )

    def remove_span(self, gp: int, length: int) -> RemovalReport:
        """Remove ``length`` characters at offset ``gp`` (Fig. 7).

        Updates the ER-tree and returns the removal report.  The
        tag-list is *not* touched here: per Section 3.3 it is updated only
        after the element index deletion has counted what actually left —
        feed those counts to :meth:`apply_removal_counts`.
        """
        return self.ertree.remove_span(gp, length)

    def apply_removal_counts(
        self, per_segment_counts: Mapping[int, Counter], report: RemovalReport
    ) -> None:
        """Fold element-index removal counts back into the tag-list.

        ``per_segment_counts`` maps sid → Counter(tid → removed occurrences)
        as returned by the element index; each segment is one tag-list
        call.  Fully removed segments no longer have ER-tree nodes; the
        report still holds them, so every entry — deleted segment's or
        survivor's — is found by its node's gp.
        """
        gone = {node.sid: node for node in report.removed}
        for sid, counts in per_segment_counts.items():
            if counts:
                node = gone.get(sid) or self.ertree.node(sid)
                self.taglist.remove_occurrences(node, counts)

    # ------------------------------------------------------------------
    # LS-mode finalization

    def prepare_for_query(self) -> None:
        """Make the log query-ready: sort the tag-list paths LS appended
        unsorted — the work Section 5.1 says LS defers to "just before
        querying" (nothing to do in LD)."""
        self.taglist.finalize()

    @property
    def query_ready(self) -> bool:
        """True when no tag list awaits sorting, so queries may run."""
        return not self.taglist.awaiting_sort

    def require_query_ready(self) -> None:
        """Raise :class:`QueryError` unless :attr:`query_ready` — the one
        check every query entry point runs before reading a segment list."""
        if not self.query_ready:
            raise QueryError(
                "update log is not query-ready; call prepare_for_query() "
                "(LS mode defers the tag-list sort to it)"
            )

    # ------------------------------------------------------------------
    # introspection

    def node(self, sid: int) -> ERNode:
        """The SB-tree lookup: segment ``sid``'s ER-tree node."""
        return self.ertree.node(sid)

    def stats(self) -> LogStats:
        """Current size snapshot (Fig. 11(a)).

        The SB-tree counts, per live segment (dummy root included), a
        16-byte sid map entry — the key and value a B+-tree leaf holds —
        and the fixed-width leaf record of Fig. 2: gp, length, lp, parent
        pointer and one pointer per child.  Every node but the dummy root
        is one child pointer, so ``n`` nodes, dummy root included, take
        ``8 * (7n - 1)`` bytes, without a walk.
        """
        return LogStats(
            segments=self.segment_count,
            tag_entries=self.taglist.entry_count(),
            sbtree_bytes=8 * (7 * len(self.ertree) - 1),
            taglist_bytes=self.taglist.approximate_bytes(),
        )

    def check_invariants(self) -> None:
        """Cross-structure consistency check used by the test suite."""
        self.ertree.check_invariants()
        self.taglist.check_invariants()
        assert self.stats().sbtree_bytes == sum(
            8 * (6 + len(node.children)) for node in self.ertree.nodes()
        ), "SB-tree size formula disagrees with the walk"
        for tid in self.taglist.tids():
            for node in self.taglist.nodes(tid):
                assert self.ertree._nodes.get(node.sid) is node, (
                    f"tag-list of tid {tid} holds dead segment {node.sid}"
                )
