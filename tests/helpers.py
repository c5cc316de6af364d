"""Shared assertion helpers for the test suite."""

from __future__ import annotations

from repro.core.database import LazyXMLDatabase


def normalized_join(db: LazyXMLDatabase, pairs) -> list:
    """Sorted list of ((anc_gstart, anc_gend), (desc_gstart, desc_gend))."""
    return sorted((db.global_span(a), db.global_span(d)) for a, d in pairs)


def assert_join_matches_oracle(db, tag_a, tag_d, axis="descendant", **options):
    """Run a join and compare it against the text-reparse oracle."""
    pairs = db.structural_join(tag_a, tag_d, axis=axis, **options)
    got = normalized_join(db, pairs)
    want = sorted(db.oracle_join(tag_a, tag_d, axis=axis))
    assert got == want, (
        f"{tag_a}//{tag_d} axis={axis} {options}: "
        f"{len(got)} pairs vs oracle {len(want)}"
    )
    return pairs


def count_for(taglist, tid: int, sid: int) -> int:
    """Occurrences of ``tid`` recorded for segment ``sid`` (0 if none).

    A linear walk: test-only, which is why it lives here and not on
    :class:`~repro.core.taglist.TagList`.
    """
    for entry in taglist._lists.get(tid, []):
        if entry.sid == sid:
            return entry.count
    return 0


def tids_for_segment(taglist, sid: int) -> list[int]:
    """Every tag id recorded for segment ``sid`` (linear, test-only)."""
    return [
        tid
        for tid, entries in taglist._lists.items()
        if any(entry.sid == sid for entry in entries)
    ]
