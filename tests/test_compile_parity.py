"""Bulk compile-path parity and memo-invalidation exactness.

The bulk whole-tag compile (:meth:`ElementIndex.tag_columns`) promises
byte-identical columns to the per-segment record-at-a-time path it
replaces.  The push-list kernel (:func:`push_kept`) makes the same
promise against the quadratic containment scan for the Section 4.2
optimization-(i) filter.  Hypothesis drives both over seeded random
documents and adversarial columns.

The interleaved-seed tests pin the *memo* side of the tentpole: the
cross-query memos (segment lists, bulk element entries, the per-segment
join chunks) must miss **iff** observable state changed — repeated
identical queries add zero misses, and queries issued right after an
update still answer exactly what the string-splice oracle answers.
"""

from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.joins import kernels
from repro.workloads.generator import generate_fragment
from tests.helpers import normalized_join
from tests.oracle import (
    _random_removal,
    replay_random_sequence,
    safe_insert_positions,
)


def _record_at_a_time(index, tid):
    """The reference compile: one record at a time off the iterator API.

    Deliberately the slowest possible shape — per-record attribute reads
    feeding per-segment generator-built columns — so it shares no code
    with the bulk builder it checks.
    """
    grouped: dict[int, list] = {}
    for record in index.all_elements(tid):
        grouped.setdefault(record.sid, []).append(record)
    return {
        sid: (
            tuple(records),
            array("q", (r.start for r in records)),
            array("q", (r.end for r in records)),
            array("q", (r.level for r in records)),
        )
        for sid, records in grouped.items()
    }


def _assert_columns_equal(label, got, want):
    assert set(got) == set(want), f"{label}: segment sets differ"
    for sid, (records, starts, ends, levels) in want.items():
        g_records, g_starts, g_ends, g_levels = got[sid]
        assert tuple(g_records) == records, f"{label}/sid={sid}: records"
        assert g_starts.tobytes() == starts.tobytes(), f"{label}/sid={sid}"
        assert g_ends.tobytes() == ends.tobytes(), f"{label}/sid={sid}"
        assert g_levels.tobytes() == levels.tobytes(), f"{label}/sid={sid}"


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_bulk_tag_columns_match_record_at_a_time(seed):
    """tag_columns == segment_columns == record-at-a-time."""
    db = replay_random_sequence(seed, n_ops=6).db
    for tid in range(len(db.log.tags)):
        reference = _record_at_a_time(db.index, tid)
        per_segment = {
            sid: db.index.segment_columns(tid, sid) for sid in reference
        }
        _assert_columns_equal(f"segment_columns/tid={tid}",
                              per_segment, reference)
        _assert_columns_equal(f"tag_columns/tid={tid}",
                              db.index.tag_columns(tid), reference)


_spans = st.lists(
    st.tuples(st.integers(0, 400), st.integers(1, 60)),
    max_size=40,
)
_lps = st.lists(st.integers(0, 500), max_size=24)


@settings(max_examples=200, deadline=None)
@given(elements=_spans, lps=_lps)
def test_push_kernels_agree_with_brute_force(elements, lps):
    """push_kept == the quadratic containment scan."""
    elements.sort()
    starts = array("q", (start for start, _ in elements))
    ends = array("q", (start + length for start, length in elements))
    lps_sorted = sorted(lps)
    brute = [
        i
        for i, (start, length) in enumerate(elements)
        if any(start < lp < start + length for lp in lps_sorted)
    ]
    expected = None if len(brute) == len(elements) else brute
    assert kernels.push_kept(starts, ends, lps_sorted) == expected


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_memos_miss_iff_state_changed(seed):
    """Interleaved updates/queries: invalidation is exact both ways.

    No update between two identical queries ⇒ zero new compile misses
    (the segment-list / element / join memos all revalidate as hits);
    an update between them ⇒ the next answers still match the oracle
    (nothing stale survived the version bumps).
    """
    result = replay_random_sequence(seed, n_ops=4)
    db, ref = result.db, result.reference
    rng = random.Random(seed + 1)
    tags = result.tags[:3]
    probes = [(a, d) for a in tags for d in tags if a != d]

    for _ in range(3):
        warm = {}
        for a, d in probes:
            warm[(a, d)] = normalized_join(db, db.structural_join(a, d))
            assert warm[(a, d)] == sorted(ref.join(a, d)), result.ops
        misses_before = db.readpath.misses
        for a, d in probes:
            assert normalized_join(db, db.structural_join(a, d)) == (
                warm[(a, d)]
            )
        assert db.readpath.misses == misses_before, (
            "repeated identical queries recompiled something: a memo "
            "invalidated without an observable state change"
        )

        removal = None
        if rng.random() < 0.4 and db.document_length:
            removal = _random_removal(db, rng, tags)
        if removal is not None:
            position, length = removal
            db.remove(position, length)
            ref.remove(position, length)
        else:
            fragment = generate_fragment(3, tags, rng=rng, max_depth=3)
            position = rng.choice(safe_insert_positions(ref.text))
            db.insert(fragment, position)
            ref.insert(fragment, position)

        for a, d in probes:
            got = normalized_join(db, db.structural_join(a, d))
            assert got == sorted(ref.join(a, d)), (
                "post-update answer diverged from the oracle: a memo "
                "served stale compiled state",
                result.ops,
            )


def test_lattice_memo_populates_and_survives_unrelated_updates():
    """The per-pair memo is the join memo now (the path lattice is gone):
    one entry per tag pair, one chunk per D-segment, a repeat reads it."""
    db = replay_random_sequence(7, n_ops=6).db
    tags = [db.log.tags.name_of(tid) for tid in range(len(db.log.tags))]
    live = [t for t in tags if db.log.tags.tid_of(t) is not None][:2]
    if len(live) < 2:
        pytest.skip("seed produced fewer than two live tags")
    a, d = live
    db.structural_join(a, d)
    entries = db.readpath.stats()["entries"]
    assert entries["join_results"] == 1
    assert entries["join_chunks"] == len(
        db.log.taglist.segments_for(db.log.tags.tid_of(d))
    )
    misses_before = db.readpath.misses
    db.structural_join(a, d)
    assert db.readpath.misses == misses_before
