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
untouched edges stay warm.  A synopsis keeps its ``est_pairs`` as one
term per D-segment, and when a tag version has moved it is *folded*, not
rebuilt: the element index's journal names the segments written since,
and only their terms and those of the D-segments below them (whose
A-count on path may have changed) are worked out again.  A journal
trimmed past the synopsis rebuilds it (``invalidations``).  The per-tag
``{sid: count}`` map every synopsis of that tag (and the executor's
Prop. 3 segment pruning) starts from is the tag list's own
(:meth:`~repro.core.taglist.TagList.counts`), read live.
"""

from __future__ import annotations

from itertools import islice
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


class _Edge(NamedTuple):
    """A memoised synopsis: built at both tags' versions and the element
    index's journal ``position``, ``terms`` its non-zero ``est_pairs``
    terms by D-segment.  Never mutated."""

    version_a: int
    version_d: int
    position: int
    terms: dict
    synopsis: EdgeSynopsis


class PathSummary:
    """Incrementally maintained edge synopses for one database's catalog
    (``log``, its update log; ``index``, its element index)."""

    def __init__(self, log, index):
        self._log = log
        self._index = index
        self._edges: dict[tuple[int, int, str], _Edge] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    def total(self, tag: str) -> int:
        """O(1) element total of a tag; the wildcard's is every element."""
        if tag == WILDCARD:
            return len(self._index)
        tid = self._log.tags.tid_of(tag)
        return 0 if tid is None else self._log.taglist.total_count(tid)

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
        if cached is not None and (
            cached.version_a == version_a and cached.version_d == version_d
        ):
            self.hits += 1
            return cached.synopsis
        self.misses += 1
        position = self._index.journal_position
        written = (
            None if cached is None
            else self._index.written_since(cached.position)
        )
        if written is None:
            if cached is not None:
                self.invalidations += 1
            terms = {}
            est_pairs = self._fold(terms, tid_a, tid_d, axis, None)
        else:
            terms = dict(cached.terms)
            est_pairs = cached.synopsis.est_pairs + self._fold(
                terms, tid_a, tid_d, axis, written
            )
        synopsis = EdgeSynopsis(
            bool(terms), est_pairs,
            taglist.total_count(tid_a), taglist.total_count(tid_d),
        )
        self._edges[key] = _Edge(version_a, version_d, position, terms, synopsis)
        return synopsis

    def _fold(self, terms: dict, tid_a: int, tid_d: int, axis: str, written) -> int:
        """Work the ``est_pairs`` terms out again into ``terms`` — for every
        D-segment (``written`` ``None``), or for the written segments and
        the D-segments below them — and return what ``est_pairs`` gained.

        A D-segment's term is ``(A-count on its path) x (its D-count)``:
        Prop. 3, the segments that can hold an ancestor of its elements
        are those on its ER-tree path — for the child axis only itself and
        the directly enclosing one (Prop 3(1)).
        """
        taglist = self._log.taglist
        counts_a = taglist.counts(tid_a)
        counts_d = taglist.counts(tid_d)
        child_only = axis == AXIS_CHILD
        tree = self._log.ertree
        if written is None:
            redo = list(counts_d)
        else:
            redo = set(written)
            for sid in written:
                if sid in tree:
                    node = tree.node(sid)
                    below = (
                        node.children if child_only
                        else islice(node.iter_subtree(), 1, None)
                    )
                    redo.update(inner.sid for inner in below)
        gained = 0
        for sid in redo:
            term = 0
            count_d = counts_d.get(sid)
            if count_d:
                path = tree.node(sid).path
                candidates = path[-2:] if child_only else path
                term = count_d * sum(counts_a.get(held, 0) for held in candidates)
            gained += term - terms.pop(sid, 0)
            if term:
                terms[sid] = term
        return gained

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
