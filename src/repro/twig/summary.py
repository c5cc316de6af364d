"""Path-summary structural synopsis over the tag catalog + ER-tree.

The tag list (§4 of DESIGN.md) already stores, per ``(tid, sid)``, the
ER-tree *path* of every segment holding the tag — the chain of segment
ids from the dummy root down (``node.path`` of each node of
:meth:`~repro.core.taglist.TagList.nodes`).
Because the segment family is laminar, that path is exactly the set of
segments that can contain an element of segment ``sid`` (Proposition 3's
cross-segment containment test, evaluated at segment granularity): an
``A`` ancestor of a ``D`` element in segment ``s`` must live in a
segment on ``path(s)`` — for the child axis, in ``s`` itself or its
direct parent segment (Prop 3(1)).

:class:`PathSummary` turns that into a per-edge synopsis:

- **feasibility** — whether *any* segment holding ``D`` has a segment
  holding ``A`` on its path.  Infeasible edges prove the twig empty
  before any element column is compiled (the synopsis reads only the tag
  list, never the read path — pruned queries compile zero columns).
- **selectivity** — ``est_pairs``, an upper bound on the edge's join
  output (``sum over D-segments of (A-count on path) x (D-count)``),
  which the twig/pairwise planner uses as the cost of materializing the
  edge pairwise.

Synopses are memoized per ``(tid_a, tid_d, axis)`` under *both* tags'
tag-list versions — the same §4e discipline as the read-path cache, so
an update invalidates O(touched tags) synopses and untouched edges stay
warm.  The per-tag ``{sid: count}`` map every synopsis of that tag (and
the executor's Prop. 3 segment pruning) starts from is the tag list's
own (:meth:`~repro.core.taglist.TagList.counts`), read live.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.joins.stack_tree import AXIS_CHILD
from repro.twig.pattern import WILDCARD

__all__ = ["EdgeSynopsis", "PathSummary"]


class EdgeSynopsis(NamedTuple):
    """Feasibility + selectivity of one pattern edge ``A axis D``."""

    feasible: bool
    est_pairs: int
    a_total: int
    d_total: int


_EMPTY = EdgeSynopsis(False, 0, 0, 0)


class PathSummary:
    """Incrementally maintained edge synopses for one database's catalog."""

    def __init__(self, log):
        self._log = log
        # (tid_a, tid_d, axis) -> (version_a, version_d, EdgeSynopsis)
        self._edges: dict[tuple[int, int, str], tuple[int, int, EdgeSynopsis]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    def total(self, tag: str) -> int:
        """O(1)-per-tag element total; wildcard sums the whole catalog."""
        taglist = self._log.taglist
        if tag == WILDCARD:
            return sum(taglist.total_count(tid) for tid in taglist.tids())
        tid = self._log.tags.tid_of(tag)
        return 0 if tid is None else taglist.total_count(tid)

    def edge(self, tag_a: str, tag_d: str, axis: str) -> EdgeSynopsis:
        """The synopsis for pattern edge ``tag_a axis tag_d``."""
        taglist = self._log.taglist
        if tag_a == WILDCARD or tag_d == WILDCARD:
            # No per-segment structure to consult: fall back to catalog
            # totals (upper bound, never memoized — totals are O(tags)).
            a_total = self.total(tag_a)
            d_total = self.total(tag_d)
            feasible = a_total > 0 and d_total > 0
            return EdgeSynopsis(feasible, a_total * d_total, a_total, d_total)
        tags = self._log.tags
        tid_a = tags.tid_of(tag_a)
        tid_d = tags.tid_of(tag_d)
        if tid_a is None or tid_d is None:
            return _EMPTY
        version_a = taglist.version(tid_a)
        version_d = taglist.version(tid_d)
        key = (tid_a, tid_d, axis)
        cached = self._edges.get(key)
        if cached is not None:
            if cached[0] == version_a and cached[1] == version_d:
                self.hits += 1
                return cached[2]
            self.invalidations += 1
        self.misses += 1
        synopsis = self._compute(tid_a, tid_d, axis)
        self._edges[key] = (version_a, version_d, synopsis)
        return synopsis

    def _compute(self, tid_a: int, tid_d: int, axis: str) -> EdgeSynopsis:
        taglist = self._log.taglist
        a_total = taglist.total_count(tid_a)
        d_total = taglist.total_count(tid_d)
        if a_total == 0 or d_total == 0:
            return EdgeSynopsis(False, 0, a_total, d_total)
        counts_a = taglist.counts(tid_a)
        counts_d = taglist.counts(tid_d)
        child_only = axis == AXIS_CHILD
        est_pairs = 0
        feasible = False
        for node in taglist.nodes(tid_d):
            path = node.path
            if child_only:
                # Prop 3(1): a child-axis parent element lives in the same
                # segment or the directly enclosing one.
                candidates = path[-2:] if len(path) >= 2 else path[-1:]
            else:
                candidates = path
            on_path = sum(counts_a.get(sid, 0) for sid in candidates)
            if on_path:
                feasible = True
                est_pairs += on_path * counts_d[node.sid]
        return EdgeSynopsis(feasible, est_pairs, a_total, d_total)

    # ------------------------------------------------------------------
    def feasible(self, query) -> bool:
        """Whether every edge of ``query`` is structurally feasible.

        Per-edge feasibility is a sound necessary condition for the whole
        twig (an infeasible edge empties every match); a ``False`` here
        answers the query ``[]`` without compiling a single column.
        """
        if self.total(query.trunk[0].tag) == 0:
            return False
        for parent, child in query.edges():
            if not self.edge(parent.tag, child.tag, child.axis).feasible:
                return False
        return True

    def segment_sids(self, tag: str):
        """The sids of the segments holding ``tag``, as a set-like view
        (empty for an unknown tag, and for the wildcard, which callers do
        not prune by)."""
        tid = None if tag == WILDCARD else self._log.tags.tid_of(tag)
        if tid is None:
            return frozenset()
        return self._log.taglist.counts(tid).keys()

    def stats(self) -> dict:
        return {
            "entries": len(self._edges),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
        }
