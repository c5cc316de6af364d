"""Stack-Tree-Desc — the Al-Khalifa et al. structural join (reference [1]).

This is both the paper's STD comparator and the subroutine Lazy-Join uses
for in-segment joins (on local positions, which is sound because local
labels are immutable).

The algorithm merges two element lists sorted by start position, keeping a
stack of nested candidate ancestors.  Intervals come from a tree, so two
intervals never partially overlap: once ancestors whose span ended before
the current descendant are popped, *every* remaining stack entry contains
the descendant — results stream out sorted by descendant position, matching
the variant the paper extends.

Works over any objects exposing ``start``, ``end`` (end-exclusive) and
``level`` attributes, e.g. :class:`~repro.core.element_index.ElementRecord`.

:func:`stack_tree_desc` runs the run-at-a-time column kernel of
:mod:`repro.joins.kernels`; the per-descendant frame walk it replaced
lives on in ``tests/helpers.py`` as the order-exact parity reference.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import QueryError
from repro.joins.kernels import std_pairs_python
from repro.obs.metrics import METRICS

__all__ = ["stack_tree_desc", "AXIS_DESCENDANT", "AXIS_CHILD"]

# Query-path instruments, folded in once per call (see repro.obs.metrics).
# Covers both standalone STD runs and Lazy-Join's in-segment subjoins.
_M_CALLS = METRICS.counter(
    "join.stacktree.calls", unit="joins", site="stack_tree_desc"
)

AXIS_DESCENDANT = "descendant"
AXIS_CHILD = "child"
_AXES = (AXIS_DESCENDANT, AXIS_CHILD)


def stack_tree_desc(
    ancestors: Sequence,
    descendants: Sequence,
    axis: str = AXIS_DESCENDANT,
    *,
    context=None,
    a_starts=None,
    a_ends=None,
    d_starts=None,
) -> list[tuple]:
    """Join two start-sorted element lists on containment.

    Returns ``(ancestor, descendant)`` pairs where the ancestor's span
    strictly contains the descendant's, ordered by descendant position
    (ties/nesting: inner ancestors after outer, i.e. ascending ancestor
    start).  ``axis="child"`` additionally requires
    ``descendant.level == ancestor.level + 1``.

    ``context`` is an optional
    :class:`~repro.service.context.QueryContext`: each run of descendants
    sharing one stack is a cooperative cancellation checkpoint, emitted
    pairs are charged against the row budget and stack pushes against the
    depth budget.  The join is read-only, so an abort leaves no trace.

    Self-joins are safe: an element never pairs with itself because
    containment is strict.

    Descendant runs that cannot produce pairs are *galloped* over: with an
    empty stack, no pair is possible until the next unpushed ancestor has
    started, so one bisect over the start-sorted descendants jumps the
    whole run (and an empty stack with the ancestors exhausted ends the
    merge outright).  Emission order is unchanged — skipped descendants
    emitted nothing in the plain merge either.

    ``a_starts``/``a_ends``/``d_starts`` are optional precompiled integer
    columns parallel to the record sequences (the read-path cache's
    ``array('q')`` layouts); omitted, the kernel derives them.
    """
    if axis not in _AXES:
        raise QueryError(f"axis must be one of {_AXES}, got {axis!r}")
    results = std_pairs_python(
        ancestors, descendants, child_only=axis == AXIS_CHILD, context=context,
        a_starts=a_starts, a_ends=a_ends, d_starts=d_starts,
    )
    if METRICS.enabled:
        _M_CALLS.inc()
    return results

