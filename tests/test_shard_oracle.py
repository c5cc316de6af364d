"""Cross-shard parity oracle (PR 5, satellite 3).

Each seeded case replays one interleaved update/join sequence through
three implementations at once — ``ShardedDatabase(N)`` for N in {1, 2, 4},
a single ``LazyXMLDatabase``, and the string-splice/full-re-parse
reference — and asserts after *every* operation that

- the virtual super-document text and element spans agree;
- structural joins return identical global-span pair sets, **cold**
  (compiled read-path caches disabled and flushed) and **warm** (caches
  enabled, then the immediately repeated call);
- the folded per-shard :class:`JoinStatistics` report the metric ground
  truth: total pairs equal to the reference's, and cross-/in-segment
  splits equal to the single database's (per-document segmentation is
  identical on both sides, so the counts must be too).

36 sequences (12 seeds x 3 shard counts) keep the sweep cheap while
walking the routing edge cases: boundary inserts (new documents,
round-robin placement), nested inserts, whole-document removal runs,
whole-element removals, empty shards.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.join import JoinStatistics

from tests.oracle import replay_sharded_sequence

N_SEEDS = 12
SHARD_COUNTS = (1, 2, 4)


def _single_span_pairs(db, pairs):
    return sorted((db.global_span(a), db.global_span(d)) for a, d in pairs)


def _sharded_span_pairs(pairs):
    return sorted((a.gspan, d.gspan) for a, d in pairs)


def _clear_caches(sharded) -> None:
    """Cold means cold everywhere: the coordinator's scatter cache would
    otherwise answer without touching the shards."""
    sharded.flush_caches()
    for shard_db in sharded.shards:
        getattr(shard_db, "db", shard_db).readpath.clear()


def _check_parity(result) -> None:
    sharded, single, ref = result.sharded, result.single, result.reference

    assert sharded.text == ref.text, result.ops
    sharded.check_invariants()
    assert sharded.element_count == single.element_count, result.ops
    assert sharded.document_length == single.document_length, result.ops

    for tag in result.tags:
        truth = ref.elements(tag)
        got = sorted(e.gspan for e in sharded.global_elements(tag))
        assert got == truth, (tag, result.ops)

    for tag_a, tag_d in itertools.permutations(result.tags[:3], 2):
        truth = ref.join(tag_a, tag_d)
        single_stats = JoinStatistics()
        single_pairs = single.structural_join(tag_a, tag_d, stats=single_stats)
        assert _single_span_pairs(single, single_pairs) == truth

        # Fresh + warm: the caches were left alone since the step's
        # update, so surviving entries revalidate, then memo-hit.
        fresh = sharded.structural_join(tag_a, tag_d)
        assert _sharded_span_pairs(fresh) == truth, (tag_a, tag_d, result.ops)
        warm = sharded.structural_join(tag_a, tag_d)
        assert _sharded_span_pairs(warm) == truth, (tag_a, tag_d, result.ops)

        # From scratch: the ``stats=`` merge reads no memo.
        stats = JoinStatistics()
        scratch = sharded.structural_join(tag_a, tag_d, stats=stats)
        assert _sharded_span_pairs(scratch) == truth, (tag_a, tag_d, result.ops)

        # Cold: no compiled read-path memos anywhere.
        _clear_caches(sharded)
        cold = sharded.structural_join(tag_a, tag_d)
        assert _sharded_span_pairs(cold) == truth, (tag_a, tag_d, result.ops)

        # Metric ground truth: the folded per-shard statistics carry the
        # reference's pair count and the single database's segment split.
        assert stats.pairs == len(truth), (tag_a, tag_d, result.ops)
        assert stats.cross_pairs == single_stats.cross_pairs
        assert stats.in_segment_pairs == single_stats.in_segment_pairs

    # Path queries ride the same scatter plan; one probe per step.
    tag_a, tag_d = result.tags[0], result.tags[1]
    single_matches = sorted(
        single.global_span(r) for r in single.path_query(f"{tag_a}//{tag_d}")
    )
    sharded_matches = sorted(
        e.gspan for e in sharded.path_query(f"{tag_a}//{tag_d}")
    )
    assert sharded_matches == single_matches, result.ops


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_sharded_matches_single_and_reference(seed, n_shards):
    result = replay_sharded_sequence(
        seed, n_shards, n_ops=7, step_hook=_check_parity
    )
    _check_parity(result)
