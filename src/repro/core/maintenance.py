"""Maintenance operations: segment packing and index rebuild.

Two operations the paper sketches but does not implement:

- Section 5.3: "nested segments can be collapsed together in order to
  reduce the overall number of segments, increase their size, and improve
  query performance" (also listed as future-work "packing techniques") —
  :func:`repack_segment`;
- Section 1: "the database administrator can rebuild the index for the
  whole XML database during maintenance hours, and therefore the update log
  can be periodically cleared" — :func:`compact_database`.

Both are label *re-assignments*: the affected elements get fresh local
labels in a fresh segment's coordinate space.  Anyone holding old
:class:`~repro.core.element_index.ElementRecord` handles for the affected
region must re-query — the same contract an index rebuild has in any
database.  Tombstones vanish in the process (the new virtual space has no
holes), so packing also reclaims the bookkeeping left by partial removals.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.core.element_index import block_columns
from repro.core.segment import DUMMY_ROOT_SID
from repro.errors import InvalidSegmentError

__all__ = ["RepackResult", "require_repackable", "repack_segment", "compact_database"]


def require_repackable(db, sid: int) -> None:
    """Raise (mutating nothing) unless segment ``sid`` can be repacked.

    Shared by :func:`repack_segment` and the durability layer's op
    pre-validation (:func:`repro.durability.recovery.validate_op`), so the
    journal never records a repack that the in-memory apply would reject.
    """
    node = db.log.node(sid)  # SegmentNotFoundError when absent
    if node.sid == DUMMY_ROOT_SID:
        raise InvalidSegmentError("cannot repack the dummy root")


@dataclass
class RepackResult:
    """What a packing operation changed."""

    new_sids: list[int]
    segments_before: int
    segments_after: int
    elements_relabelled: int


def repack_segment(db, sid: int) -> RepackResult:
    """Collapse segment ``sid``'s subtree into a single fresh segment.

    Every element of the subtree gets a fresh local label in the new
    segment's coordinate space (derived from its current global span, so
    partial-removal tombstones are flattened away), and the new segment's
    fragment is the subtree's text.  The ER-tree, tag-list and element
    index are all kept consistent, and a top-level document's marks pass
    to its new sid: the text and the global spans they vouch for are
    unchanged.
    """
    require_repackable(db, sid)
    node = db.log.node(sid)
    base_gp = node.gp
    text = node.read(node.gp, node.end)

    # Gather the subtree's element records with global-derived fresh labels.
    old_nodes = list(node.iter_subtree())
    fresh_records: list[tuple[int, int, int, int]] = []
    for sub in old_nodes:
        for tid, start, end, level in db.index.block(sub.sid).rows():
            gstart = sub.to_global(start)
            gend = sub.to_global(end, count_ties=False)
            fresh_records.append((tid, gstart - base_gp, gend - base_gp, level))

    # Drop the old segments from every structure.
    for old_node in old_nodes:
        db.log.taglist.remove_occurrences(
            old_node, db.index.remove_segment(old_node.sid)
        )
        # The version bumps above already fence off stale compiled state;
        # eagerly reclaim it (repacked sids are never queried again).
        db.readpath.drop_segment(old_node)

    # One fresh segment over the same span; re-register everything.
    segments_before = db.segment_count
    new_node = db.log.ertree.collapse_subtree(sid)
    new_node.fragment = text
    for marks in (db._trusted, db._unbalanced):
        if sid in marks:
            marks.remove(sid)
            marks.add(new_node.sid)
    columns = block_columns(fresh_records)
    db.index.insert_segment(new_node.sid, *columns)
    db.log.taglist.add_segment(new_node, Counter(columns[0]))
    return RepackResult(
        new_sids=[new_node.sid],
        segments_before=segments_before,
        segments_after=db.segment_count,
        elements_relabelled=len(fresh_records),
    )


def compact_database(db) -> RepackResult:
    """Rebuild the whole database: one segment per top-level document.

    The administrator's "maintenance hours" operation — afterwards the
    update log is as small as it can get (one ER-tree node per top-level
    segment, single-entry tag-list paths) and all tombstones are gone.
    """
    top_level = [child.sid for child in db.log.ertree.root.children]
    segments_before = db.segment_count
    new_sids: list[int] = []
    relabelled = 0
    for sid in top_level:
        result = repack_segment(db, sid)
        new_sids.extend(result.new_sids)
        relabelled += result.elements_relabelled
    return RepackResult(
        new_sids=new_sids,
        segments_before=segments_before,
        segments_after=db.segment_count,
        elements_relabelled=relabelled,
    )
