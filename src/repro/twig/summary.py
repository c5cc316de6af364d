"""Path summary: what the tag catalog says about a tag, read live.

The tag list (§4 of DESIGN.md) already stores, per ``(tid, sid)``, the
element count of every segment holding the tag, and the ER-tree *path*
of each such segment — the chain of segment ids from the dummy root
down.  Because the segment family is laminar, that path is exactly the
set of segments that can contain an element of the segment
(Proposition 3's cross-segment containment test at segment granularity).

:class:`PathSummary` reads two things off it and keeps nothing:

- :meth:`~PathSummary.total`, a tag's element total, by which the plan
  rule (:func:`repro.twig.plan.plan_twig`) answers a pattern naming an
  absent tag ``[]`` before any read-path column is compiled;
- :meth:`~PathSummary.segment_sids`, the segments holding a tag, by
  which the pairwise executor skips a child segment whose path holds no
  segment of the pattern parent's tag.
"""

from __future__ import annotations

from repro.twig.pattern import WILDCARD

__all__ = ["PathSummary"]


class PathSummary:
    """Tag totals and segment sets for one database's catalog (``log``,
    its update log; ``index``, its element index)."""

    def __init__(self, log, index):
        self._log = log
        self._index = index

    def total(self, tag: str) -> int:
        """O(1) element total of a tag; the wildcard's is every element."""
        if tag == WILDCARD:
            return len(self._index)
        tid = self._log.tags.tid_of(tag)
        return 0 if tid is None else self._log.taglist.total_count(tid)

    def segment_sids(self, tag: str):
        """The sids of the segments holding ``tag``, as a set-like view
        (empty for an unknown tag, and for the wildcard, which callers do
        not prune by)."""
        tid = None if tag == WILDCARD else self._log.tags.tid_of(tag)
        if tid is None:
            return frozenset()
        return self._log.taglist.counts(tid).keys()

    def stats(self) -> dict:
        """Nothing is memoised: no entries, and none invalidated."""
        return {"entries": 0, "invalidations": 0}
