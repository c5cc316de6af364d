"""Differential oracle: the lazy store vs a naive re-parse reference.

Each seeded case replays one random insert/remove sequence (via
``tests.oracle.replay_random_sequence``) against both a
:class:`LazyXMLDatabase` and the string-splice/full-re-parse
:class:`ReferenceDatabase`, then checks that

- the mirrored text, element counts, and per-tag global spans agree;
- every join algorithm returns exactly the reference's global-span pairs;
- the lazy-join metrics report the ground truth: total pairs, and the
  cross-segment count (pairs whose ancestor and descendant live in
  different segments — the quantity Fig. 12 sweeps).

The sequence count (200+) is the point: each sequence is tiny, but
together they walk the update model's edge cases — nested inserts,
tombstoned partial removals, whole-segment drops, empty documents.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core.database import LazyXMLDatabase
from repro.core.element_index import ElementIndex
from repro.core.join import JoinStatistics
from repro.obs.metrics import METRICS
from repro.workloads.generator import generate_fragment, tag_pool

from tests.oracle import (
    ReferenceDatabase,
    _random_removal,
    replay_random_sequence,
    safe_insert_positions,
)

N_SEQUENCES = 220

_M_PAIRS = METRICS.get("join.lazy.pairs")
_M_CROSS = METRICS.get("join.lazy.cross_pairs")
_M_IN_SEG = METRICS.get("join.lazy.in_segment_pairs")


def _span_pairs(db, pairs):
    return sorted(
        (db.global_span(a), db.global_span(d)) for a, d in pairs
    )


@pytest.mark.parametrize("seed", range(N_SEQUENCES))
def test_lazy_store_matches_reference(seed):
    result = replay_random_sequence(seed)
    db, ref = result.db, result.reference

    # The lazy store's mirrored text is the reference text, its internal
    # invariants hold, and both sides count the same elements.
    assert db.text == ref.text, result.ops
    db.check_invariants()
    assert db.element_count == sum(ref.tag_counts().values()), result.ops

    for tag in result.tags:
        db_spans = sorted((e.start, e.end) for e in db.global_elements(tag))
        assert db_spans == ref.elements(tag), (tag, result.ops)

    for tag_a, tag_d in itertools.permutations(result.tags[:3], 2):
        truth = ref.join(tag_a, tag_d)

        stats = JoinStatistics()
        enabled_before = METRICS.enabled
        pairs_before = _M_PAIRS.value
        cross_before = _M_CROSS.value
        in_seg_before = _M_IN_SEG.value
        lazy = db.structural_join(tag_a, tag_d, stats=stats)
        assert _span_pairs(db, lazy) == truth, (tag_a, tag_d, result.ops)

        std = db.structural_join(tag_a, tag_d, algorithm="std")
        assert _span_pairs(db, std) == truth, (tag_a, tag_d, result.ops)

        # Metric ground truth: the registry's deltas and the per-call
        # statistics must both equal what the oracle can verify directly.
        cross_truth = sum(1 for a, d in lazy if a.sid != d.sid)
        assert stats.pairs == len(truth)
        assert stats.cross_pairs == cross_truth
        assert stats.in_segment_pairs == len(truth) - cross_truth
        if enabled_before:
            assert _M_PAIRS.value - pairs_before >= len(truth)
            assert _M_CROSS.value - cross_before >= cross_truth


def _interleave_updates_and_joins(seed):
    """Updates interleaved with repeated joins on one long-lived cache.

    The database's read-path cache is left alone from op to op, so every
    compiled entry and memo chunk that an update did not touch survives
    it and must be revalidated by the version counters alone.  After
    *every* operation, for each probed tag pair, three answers must agree
    with the string-splice reference: the **first** call after the update
    (surviving entries revalidated, touched ones recompiled), its
    **repeat** (a join-result memo hit), and the ``stats=`` **from-scratch**
    merge, which reads the same compiled columns but no memo.
    """
    rng = random.Random(seed)
    tags = tag_pool(3)
    db = LazyXMLDatabase()
    ref = ReferenceDatabase()
    pairs = list(itertools.permutations(tags, 2))

    def check_all():
        for tag_a, tag_d in pairs:
            truth = ref.join(tag_a, tag_d)
            first = db.structural_join(tag_a, tag_d)
            hits_before = db.readpath.hits
            repeat = db.structural_join(tag_a, tag_d)
            if (
                db.log.tags.tid_of(tag_a) is not None
                and db.log.tags.tid_of(tag_d) is not None
            ):
                # known tags always store a memo, so the repeat must hit
                assert db.readpath.hits > hits_before, (tag_a, tag_d)
            scratch = db.structural_join(
                tag_a, tag_d, stats=JoinStatistics()
            )
            assert _span_pairs(db, first) == truth, (tag_a, tag_d)
            assert _span_pairs(db, repeat) == truth, (tag_a, tag_d)
            assert _span_pairs(db, scratch) == truth, (tag_a, tag_d)

    seed_fragment = generate_fragment(6, tags, rng=rng, max_depth=4)
    db.insert(seed_fragment)
    ref.insert(seed_fragment)
    check_all()
    for _ in range(6):
        if rng.random() < 0.35 and db.document_length:
            removal = _random_removal(db, rng, tags)
            if removal is not None:
                db.remove(*removal)
                ref.remove(*removal)
        else:
            fragment = generate_fragment(
                1 + rng.randrange(5), tags, rng=rng, max_depth=4
            )
            position = rng.choice(safe_insert_positions(ref.text))
            db.insert(fragment, position)
            ref.insert(fragment, position)
        check_all()
    db.check_invariants()


@pytest.mark.parametrize("seed", range(40))
def test_interleaved_updates_and_joins_stay_coherent(seed):
    """The read-path cache must never serve yesterday's answer."""
    _interleave_updates_and_joins(seed)


def test_interleaving_catches_a_missing_invalidation_edge(monkeypatch):
    """The test above has teeth: with the element-version bump disabled —
    a cache with a missing invalidation edge — stale compiled state
    survives an update and the interleaving fails."""
    monkeypatch.setattr(ElementIndex, "_bump", lambda self, sid: None)
    with pytest.raises(AssertionError):
        for seed in range(40):
            _interleave_updates_and_joins(seed)


def test_sequences_exercise_removals():
    """The generator must actually mix removals in, or the differential
    suite silently degrades to insert-only coverage."""
    removes = sum(
        replay_random_sequence(seed).removes for seed in range(40)
    )
    assert removes > 20


def test_cross_segment_pairs_appear():
    """At least some sequences must produce cross-segment join pairs,
    or the Proposition 3 branch-position path goes untested here."""
    total_cross = 0
    for seed in range(30):
        result = replay_random_sequence(seed)
        for tag_a, tag_d in itertools.permutations(result.tags[:3], 2):
            pairs = result.db.structural_join(tag_a, tag_d)
            total_cross += sum(1 for a, d in pairs if a.sid != d.sid)
    assert total_cross > 0
