"""Differential oracle for twig queries: ≥30 seeded interleaved sequences.

Extends the string-splice oracle to branching patterns: every seeded
update stream drives a :class:`ShardedDatabase` (N ∈ {1, 4}), a single
:class:`LazyXMLDatabase`, and the re-parse reference in lockstep, and
after *every* op evaluates a fixed pool of twig patterns on all three —
the sharded scatter-gather and the single-node engine (both executors)
must answer exactly the global spans the brute-force tree matcher
computes from the re-parsed text.

The brute-force matcher shares no code with the engine: it walks the
parsed element tree top-down, checking tags, wildcards, positional
ordinals among same-tag siblings, value predicates on raw inner text,
and existential branches by direct enumeration.
"""

from __future__ import annotations

import pytest

from repro.twig import parse_twig
from repro.twig.evaluate import evaluate_twig
from tests.oracle import _WRAPPER, ReferenceDatabase, replay_sharded_sequence

#: Twig shapes over the replay tag pool (t0..t3).  One infeasible
#: pattern keeps the summary prune honest under interleaved updates.
PATTERNS = [
    "t0//t1",
    "t0[t1]",
    "t0[t1]//t2",
    "t0[t1//t2]",
    "t0[t1][t2]",
    "t0/*/t1",
    "t0/t1[1]",
    "t1[t0/t2]//t3",
    "t0//absent[t1]",
]

#: 15 seeds × 2 shard counts = 30 interleaved sequences.
SEEDS = list(range(15))
SHARD_COUNTS = [1, 4]


def reference_twig(ref: ReferenceDatabase, expression: str, *, chains=False):
    """Ground-truth twig answer: sorted global (start, end) output spans;
    with ``chains=True`` also the sorted trunk chains, each a tuple of
    one global span per trunk step (what ``bindings=True`` returns)."""
    query = parse_twig(expression)
    parsed = ref._parse()
    wrapped = f"<{_WRAPPER}>{ref.text}</{_WRAPPER}>"
    shift = len(_WRAPPER) + 2

    def tag_ok(elem, node):
        return elem.tag != _WRAPPER and (node.is_wildcard or elem.tag == node.tag)

    def matches(elem, node, parent):
        """``elem`` satisfies ``node``'s tag, predicates, and branches.

        ``parent`` is the already-matched parent element when ``node``
        is a child-axis step (the grammar only allows positional
        predicates there), else None.
        """
        if not tag_ok(elem, node):
            return False
        if node.position is not None:
            siblings = [c for c in parent.children if tag_ok(c, node)]
            if (
                len(siblings) < node.position
                or siblings[node.position - 1] is not elem
            ):
                return False
        if node.value is not None:
            raw = wrapped[elem.start : elem.end]
            inner = raw[raw.find(">") + 1 : raw.rfind("<")]
            if inner != node.value:
                return False
        for branch in node.branches:
            scope = (
                elem.children if branch.axis == "child" else elem.descendants()
            )
            if not any(
                matches(c, branch, elem if branch.axis == "child" else None)
                for c in scope
            ):
                return False
        return True

    out = set()
    found = []

    def walk(elem, depth, chain):
        """``elem`` matched trunk[depth] after ``chain``; extend the chain
        to the leaf."""
        chain += ((elem.start - shift, elem.end - shift),)
        if depth == len(query.trunk) - 1:
            out.add(chain[-1])
            found.append(chain)
            return
        step = query.trunk[depth + 1]
        scope = elem.children if step.axis == "child" else elem.descendants()
        for child in scope:
            if matches(child, step, elem if step.axis == "child" else None):
                walk(child, depth + 1, chain)

    for elem in parsed.elements:
        if elem.tag != _WRAPPER and matches(elem, query.trunk[0], None):
            walk(elem, 0, ())
    if chains:
        return sorted(out), sorted(found)
    return sorted(out)


def check_all_patterns(result) -> None:
    single, sharded, ref = result.single, result.sharded, result.reference
    for expression in PATTERNS:
        want = reference_twig(ref, expression)
        for strategy in ("twig", "pairwise"):
            records = evaluate_twig(single, expression, strategy=strategy)
            got = sorted(single.global_span(r) for r in records)
            assert got == want, (
                f"{expression} [{strategy}] diverged after {result.ops[-1]!r}:"
                f" {got} != {want}"
            )
        via_shards = sorted(
            (r.gstart, r.gend) for r in sharded.twig_query(expression)
        )
        assert via_shards == want, (
            f"{expression} [sharded] diverged after {result.ops[-1]!r}:"
            f" {via_shards} != {want}"
        )


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_twig_sequence(seed, n_shards):
    replay_sharded_sequence(
        seed,
        n_shards,
        n_ops=6,
        step_hook=check_all_patterns,
    )
