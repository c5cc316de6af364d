"""Batched-vs-serial differential oracle (PR 8, satellite 3).

Each seeded case replays one interleaved update stream two ways at once —
grouped into ``apply_batch`` calls on one database, applied one commit at
a time on an identical twin — and after every step checks both against
the string-splice/full-re-parse reference:

- the super-document text and per-tag global spans agree three ways;
- structural joins return the reference's global-span pairs **cold**
  (read-path caches disabled and flushed — a batch that under-invalidates
  cannot hide here) and **warm** (cache enabled, immediately repeated —
  a batch that fails to bump a version serves a stale memo here);
- the batched twin's :class:`JoinStatistics` equal the serial twin's
  field for field: grouping commits must not change segmentation.

42 sequences (14 seeds, each at no sharding and N ∈ {1, 4} shards) walk
the interleavings that break batch commit protocols: removals inside
batches, doc-map changes mid-batch (sharded), batches bracketed by single
ops, and joins after every step.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.core.join import JoinStatistics

from tests.oracle import _global_spans, replay_batched_sequence

N_SEEDS = 14
TARGETS = (None, 1, 4)  # LazyXMLDatabase twin, ShardedDatabase(1), (4)


def _span_pairs(db, pairs):
    out = []
    for a, d in pairs:
        if hasattr(a, "gspan"):
            out.append((a.gspan, d.gspan))
        else:
            out.append((db.global_span(a), db.global_span(d)))
    out.sort()
    return out


def _clear_caches(db) -> None:
    """Cold everywhere: every compiled read-path entry dropped."""
    if hasattr(db, "shards"):
        db.flush_caches()  # the coordinator's scatter cache too
        for shard in db.shards:
            getattr(shard, "db", shard).readpath.clear()
    else:
        db.readpath.clear()


def _join(db, tag_a, tag_d, stats=None):
    return _span_pairs(db, db.structural_join(tag_a, tag_d, stats=stats))


def _check_parity(result) -> None:
    batched, serial, ref = result.batched, result.serial, result.reference

    assert batched.text == ref.text, result.ops
    assert serial.text == ref.text, result.ops
    batched.check_invariants()
    assert batched.element_count == serial.element_count, result.ops

    for tag in result.tags:
        truth = ref.elements(tag)
        assert _global_spans(batched, tag) == truth, (tag, result.ops)
        assert _global_spans(serial, tag) == truth, (tag, result.ops)

    for tag_a, tag_d in itertools.permutations(result.tags[:3], 2):
        truth = ref.join(tag_a, tag_d)

        # First call since the step's updates: the caches were left
        # alone, so surviving entries revalidate; then the memoized repeat.
        assert _join(batched, tag_a, tag_d) == truth, (tag_a, tag_d, result.ops)
        assert _join(serial, tag_a, tag_d) == truth, (tag_a, tag_d, result.ops)
        assert _join(batched, tag_a, tag_d) == truth, "stale warm answer"

        # From scratch: the ``stats=`` merge reads no memo.
        batched_stats = JoinStatistics()
        serial_stats = JoinStatistics()
        assert _join(batched, tag_a, tag_d, batched_stats) == truth
        assert _join(serial, tag_a, tag_d, serial_stats) == truth

        # Cold: compiled read-path caches emptied on both twins.
        _clear_caches(batched)
        _clear_caches(serial)
        assert _join(batched, tag_a, tag_d) == truth, (tag_a, tag_d, result.ops)
        assert _join(serial, tag_a, tag_d) == truth, (tag_a, tag_d, result.ops)

        # Grouping commits into batches must not change segmentation, so
        # the two twins' join statistics agree field for field.
        assert dataclasses.asdict(batched_stats) == dataclasses.asdict(
            serial_stats
        ), (tag_a, tag_d, result.ops)


@pytest.mark.parametrize("n_shards", TARGETS)
@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_batched_matches_serial_and_reference(seed, n_shards):
    result = replay_batched_sequence(
        seed, n_shards=n_shards, step_hook=_check_parity
    )
    _check_parity(result)
    assert result.batches + result.singles > 0


def test_sequences_exercise_batches_and_removals():
    """The stream must actually mix batches (and removals within them),
    or the suite silently degrades to single-op coverage."""
    batches = singles = removes = 0
    for seed in range(N_SEEDS):
        for n_shards in TARGETS:
            result = replay_batched_sequence(seed, n_shards=n_shards)
            batches += result.batches
            singles += result.singles
            removes += result.removes
    assert batches > 20, "apply_batch barely exercised"
    assert singles > 20, "single-op interleaving barely exercised"
    assert removes > 10, "no removal coverage inside the stream"
