"""Segments and span geometry (Definitions 1 and 2 of the paper).

A *segment* is a well-formed XML fragment inserted into the super document as
one unit.  It is identified by a system-assigned segment id (``sid``) and
carries:

- ``gp`` — its current global position: offset of its first character in the
  super document (mutable: later updates shift it);
- ``length`` — its current character length (mutable: insertions into it grow
  it, removals shrink it);
- ``lp`` — its local position inside its parent segment, *immutable* once
  assigned (Definition 2): the number of parent characters preceding it that
  do not belong to any left-sibling segment, frozen at insertion time.

This module also centralizes the span-relation case analysis used by both
update algorithms (Figures 5–7).  The paper's definitions use strict
inequalities; the boundary cases the pseudocode leaves open (spans sharing an
endpoint, identical spans) are resolved here the way text editing semantics
demand and are documented per-case on :func:`relate`.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["SpanRelation", "relate", "DUMMY_ROOT_SID"]

#: The sid reserved for the dummy root that wraps the whole database.
DUMMY_ROOT_SID = 0


class SpanRelation(Enum):
    """How span *a* relates to span *b* on the character axis."""

    BEFORE = "before"  #: a ends at or before b starts
    AFTER = "after"  #: a starts at or after b ends
    CONTAINS = "contains"  #: b is inside a (a may share b's endpoints)
    CONTAINED = "contained"  #: a is strictly inside b
    LEFT_INTERSECT = "left_intersect"  #: a starts inside b, ends after b
    RIGHT_INTERSECT = "right_intersect"  #: a starts before b, ends inside b


def relate(a_gp: int, a_len: int, b_gp: int, b_len: int) -> SpanRelation:
    """Classify how span ``a = [a_gp, a_gp + a_len)`` relates to span ``b``.

    The classification is from *a*'s point of view, matching the narration of
    Section 3.3 where *a* is the removed segment and *b* an ER-tree node:

    - ``CONTAINED``: *a* strictly inside *b* (``b.gp < a.gp`` and
      ``a_end < b_end``) — Fig. 7 recurses into *b*;
    - ``CONTAINS``: *b* inside *a*, *including* shared endpoints and the
      identical-span case — Fig. 7 deletes *b* and its descendants.  The
      paper's strict inequalities leave ``a == b`` unclassified; removing
      exactly a segment's span must delete that segment, so endpoint-sharing
      resolves toward ``CONTAINS``;
    - ``LEFT_INTERSECT`` (*a* starts strictly inside *b* and ends at or past
      *b*'s end) / ``RIGHT_INTERSECT`` (*a* starts at or before *b*'s start
      and ends strictly inside *b*): the clipping cases of Fig. 7 lines
      10–20;
    - ``BEFORE`` / ``AFTER``: disjoint (touching endpoints are disjoint: spans
      are half-open).

    Zero-length spans are treated as points: a point at *b*'s boundary is
    disjoint from *b*; a point strictly inside *b* is ``CONTAINED``.
    """
    a_end = a_gp + a_len
    b_end = b_gp + b_len
    if a_end <= b_gp:
        return SpanRelation.BEFORE
    if a_gp >= b_end:
        return SpanRelation.AFTER
    # Spans overlap by at least one character (or a is a point inside b).
    if a_gp <= b_gp and a_end >= b_end:
        return SpanRelation.CONTAINS
    if a_gp >= b_gp and a_end <= b_end:
        # Not CONTAINS (previous test), so at least one side is strict.
        return SpanRelation.CONTAINED
    if a_gp > b_gp:
        return SpanRelation.LEFT_INTERSECT
    return SpanRelation.RIGHT_INTERSECT
