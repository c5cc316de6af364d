"""Hypothesis parity: holistic twig ≡ pairwise decomposition, byte for byte.

The twig engine ships two executors — the holistic one, answered from
the twig memo (no intermediate pair lists), and the pairwise
decomposition (one :func:`stack_tree_desc` per twig edge plus a
semi-join reduce).  Their
answers must be *identical*, not merely equal as sets: same records,
same canonical order, cold and warm, and again after further updates.

Hypothesis drives both over seeded random documents (the same laminar
update streams the differential oracle uses) and a pool of twig shapes
covering branches, nested branches, wildcards, and positional
predicates.  Plain linear chains — what ``path_query`` answers from the
twig memo — are additionally held to the from-scratch semi-join chain of
``tests/helpers.py::semi_join_path``.

The same agreement is held after every step of the shared ``apply_op``
histories of ``tests/test_join_chunks.py`` (inserts anywhere, whole,
partial and nested removes, batches, rollback, repack, compact,
dumps/loads; LD and LS).  The pairwise executor and the holistic
binding chains read the one stream builder and string their chains with
the one ``path_chains``, so agreement between them says nothing about
either: wherever the text mirror still parses to the indexed elements,
the answers and both executors' binding chains are also held to the
brute-force tree matcher of ``tests/test_twig_oracle.py``.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XMLSyntaxError
from repro.twig.evaluate import evaluate_twig
from tests.oracle import (
    ReferenceDatabase,
    replay_random_sequence,
    safe_insert_positions,
)
from tests.helpers import semi_join_path
from tests.test_join_chunks import _HISTORY, _replay
from tests.test_twig_oracle import reference_twig
from repro.workloads.generator import generate_fragment, tag_pool

TAGS = tag_pool(4)

#: Twig shapes instantiated over the generator's tag pool.  ``{0}``..
#: ``{3}`` are replaced by a seeded random drawing of distinct tags, so
#: every Hypothesis example exercises different tag/selectivity mixes.
SHAPES = [
    "{0}//{1}",
    "{0}/{1}",
    "{0}[{1}]",
    "{0}[{1}]//{2}",
    "{0}[{1}//{2}]",
    "{0}[{1}][{2}]",
    "{0}[{1}]/{2}",
    "{0}/*/{1}",
    "{0}/{1}[1]",
    "{0}[{1}/{2}]//{3}",
    "{0}/*",
    "*[{0}]//{1}",
    "{0}[{1}[2]]",
    '{0}[{1}/{2}=""]',
]

#: Twigs over ``tests/test_log_maintenance.FRAGMENTS`` (tags a, b, c; texts
#: x, y, z, w, v): a wildcard under a child axis and as the entry step,
#: positional and value predicates on a step and on a branch.
HISTORY_PATTERNS = [
    "a//b",
    "c[a]/b",
    "b[b/a]",
    "a/*",
    'c/*[.="z"]',
    "*/b",
    "*[c]//a",
    "b/b[1]",
    "c[b[1]]",
    'a[b="x"]',
    'b[b/a="v"]//a',
    "*//b//a",
]


def pattern_pool(rng: random.Random) -> list[str]:
    pool = []
    for shape in SHAPES:
        tags = rng.sample(TAGS, 4)
        pool.append(shape.format(*tags))
    return pool


def record_key(record):
    return (record.sid, record.start, record.end, record.level)


def chain_key(chain):
    return tuple(record_key(r) for r in chain)


def assert_strategies_agree(db, expression):
    """twig ≡ pairwise on records *and* on full binding chains."""
    twig = evaluate_twig(db, expression, strategy="twig")
    pairwise = evaluate_twig(db, expression, strategy="pairwise")
    assert [record_key(r) for r in twig] == [record_key(r) for r in pairwise], (
        expression
    )
    twig_b = evaluate_twig(db, expression, strategy="twig", bindings=True)
    pair_b = evaluate_twig(db, expression, strategy="pairwise", bindings=True)
    assert [chain_key(c) for c in twig_b] == [chain_key(c) for c in pair_b], (
        expression
    )
    return [record_key(r) for r in twig]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_holistic_matches_pairwise_cold_warm_updated(seed):
    rng = random.Random(seed ^ 0x5EED)
    result = replay_random_sequence(seed, n_ops=5)
    db, ref = result.db, result.reference

    patterns = pattern_pool(rng)
    cold = {expr: assert_strategies_agree(db, expr) for expr in patterns}
    # Warm: every compiled column and summary memo is now hot; answers
    # must not drift.
    for expr in patterns:
        assert assert_strategies_agree(db, expr) == cold[expr], expr

    # One more update, then the whole pool again: the §4e version
    # counters must invalidate exactly what changed on both executors.
    fragment = generate_fragment(1 + rng.randrange(4), TAGS, rng=rng, max_depth=3)
    position = rng.choice(safe_insert_positions(ref.text))
    db.insert(fragment, position)
    ref.insert(fragment, position)
    for expr in patterns:
        assert_strategies_agree(db, expr)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_plain_chain_memo_pairwise_and_semi_join_agree(seed):
    """Plain chains: the memo, the pairwise streams and the from-scratch
    semi-join chain agree, in order."""
    rng = random.Random(seed)
    db = replay_random_sequence(seed, n_ops=4).db
    for _ in range(4):
        a, b = rng.sample(TAGS, 2)
        for expr in (f"{a}//{b}", f"{a}/{b}", f"{a}//{b}/{a}"):
            want = [record_key(r) for r in semi_join_path(db, expr)]
            assert assert_strategies_agree(db, expr) == want, expr
            assert [record_key(r) for r in db.path_query(expr)] == want, expr


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_forced_strategy_agrees_with_planner_choice(seed):
    """strategy='auto' answers exactly what both forced strategies do."""
    rng = random.Random(seed)
    db = replay_random_sequence(seed, n_ops=3).db
    for expr in pattern_pool(rng)[:4]:
        auto = [record_key(r) for r in evaluate_twig(db, expr)]
        forced = assert_strategies_agree(db, expr)
        assert auto == forced, expr


def mirror_reference(db):
    """The re-parse reference for ``db``, or ``None`` when the text mirror
    no longer parses to the indexed elements: the histories insert at any
    offset, also inside a tag, and from then on only the index speaks."""
    ref = ReferenceDatabase()
    ref.text = db.text
    try:
        parsed = ref._parse()
    except XMLSyntaxError:
        return None
    ref._parse = lambda: parsed  # one parse per step, not one per pattern
    for tag in "abc":
        indexed = sorted((e.start, e.end) for e in db.global_elements(tag))
        if ref.elements(tag) != indexed:
            return None
    return ref


def assert_history_answers(db) -> None:
    """Every pattern: twig == pairwise, records and chains alike, == the
    brute-force tree matcher, records and chains alike.  A step whose
    mirror is no longer the indexed document is passed over here;
    ``tests/test_twig_memo.py`` holds the memo to pairwise there too."""
    db.prepare_for_query()
    ref = mirror_reference(db)
    if ref is None:
        return
    for expr in HISTORY_PATTERNS:
        got = assert_strategies_agree(db, expr)
        spans = sorted(
            db.global_span(r) for r in evaluate_twig(db, expr, strategy="twig")
        )
        want_spans, want_chains = reference_twig(ref, expr, chains=True)
        assert len(spans) == len(got)
        assert spans == want_spans, expr
        for strategy in ("twig", "pairwise"):
            chains = sorted(
                tuple(db.global_span(r) for r in chain)
                for chain in evaluate_twig(
                    db, expr, strategy=strategy, bindings=True
                )
            )
            assert chains == want_chains, (expr, strategy)


@settings(max_examples=40, deadline=None)
@given(_HISTORY)
def test_ld_history_twig_pairwise_and_tree_matcher_agree(ops):
    _replay("dynamic", ops, assert_history_answers)


@settings(max_examples=25, deadline=None)
@given(_HISTORY)
def test_ls_history_twig_pairwise_and_tree_matcher_agree(ops):
    _replay("static", ops, assert_history_answers)
