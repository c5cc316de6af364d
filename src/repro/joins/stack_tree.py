"""Stack-Tree-Desc — the Al-Khalifa et al. structural join (reference [1]).

This is both the paper's STD comparator and the subroutine Lazy-Join uses
for in-segment joins (on local positions, which is sound because local
labels are immutable).  :func:`std_join` runs the comparator on derived
global labels; :func:`path_chains` strings one join per path edge.

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

import gc
import threading
from collections.abc import Sequence

from repro.errors import QueryError
from repro.joins.kernels import std_pairs_python
from repro.obs.metrics import METRICS

__all__ = [
    "stack_tree_desc", "std_join", "path_chains", "check_axis",
    "AXIS_DESCENDANT", "AXIS_CHILD",
]

# Query-path instruments, folded in once per call (see repro.obs.metrics).
# Covers both standalone STD runs and Lazy-Join's in-segment subjoins.
_M_CALLS = METRICS.counter(
    "join.stacktree.calls", unit="joins", site="stack_tree_desc"
)

AXIS_DESCENDANT = "descendant"
AXIS_CHILD = "child"
_AXES = (AXIS_DESCENDANT, AXIS_CHILD)

# A join allocates tens of thousands of result tuples that all *survive*
# into the returned list, so every generation-0 collection triggered by
# that allocation burst scans live data and frees nothing — pure overhead,
# measured at ~25% of a large cold join.  Both joins of the figures
# (Lazy-Join and std_join: one regime, so the figures compare merges and
# not collectors) therefore run with automatic collection paused —
# nesting-safe across threads; the pause window is bounded by one join
# and restores the caller's GC state.
_gc_lock = threading.Lock()
_gc_depth = 0
_gc_was_enabled = False


class _GcPaused:
    """Scoped pause of automatic garbage collection (see the note above)."""

    __slots__ = ()

    def __enter__(self) -> None:
        global _gc_depth, _gc_was_enabled
        with _gc_lock:
            if _gc_depth == 0:
                _gc_was_enabled = gc.isenabled()
                if _gc_was_enabled:
                    gc.disable()
            _gc_depth += 1

    def __exit__(self, *exc_info) -> None:
        global _gc_depth
        with _gc_lock:
            _gc_depth -= 1
            if _gc_depth == 0 and _gc_was_enabled:
                gc.enable()


gc_paused = _GcPaused()  # stateless: one serves every join


def check_axis(axis: str) -> None:
    """Refuse an axis other than ``"descendant"`` and ``"child"``."""
    if axis not in _AXES:
        raise QueryError(f"axis must be one of {_AXES}, got {axis!r}")


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
    sharing one stack is a cooperative cancellation checkpoint and emitted
    pairs are charged against the row budget.  The join is read-only, so an abort leaves no trace.

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
    check_axis(axis)
    results = std_pairs_python(
        ancestors, descendants, child_only=axis == AXIS_CHILD, context=context,
        a_starts=a_starts, a_ends=a_ends, d_starts=d_starts,
    )
    if METRICS.enabled:
        _M_CALLS.inc()
    return results


def std_join(db, tag_a: str, tag_d: str, axis: str = AXIS_DESCENDANT, *,
             context=None) -> list[tuple]:
    """The STD baseline: derive both tags' global labels
    (``db.global_elements``, per record), join on them.  Returns the
    record pairs Lazy-Join returns, by global descendant position."""
    with gc_paused:
        a_globals = db.global_elements(tag_a, context=context)
        d_globals = db.global_elements(tag_d, context=context)
        pairs = stack_tree_desc(a_globals, d_globals, axis=axis, context=context)
        return [(a.record, d.record) for a, d in pairs]


def path_chains(
    streams: Sequence[Sequence], axes: Sequence[str], *, context=None
) -> list[tuple]:
    """Every chain of a linear path, one element per step, in leaf order.

    ``streams[i]`` holds step *i*'s elements sorted by ``start``;
    ``axes[i]`` (``i >= 1``) links step *i* to step ``i - 1``.  Each edge
    is one :func:`stack_tree_desc` from the chains' tails to the next
    stream, whose pairs come in descendant order.
    """
    if len(axes) != len(streams) or not set(axes) <= set(_AXES):
        raise QueryError(
            f"need one axis of {_AXES} per step: {len(streams)} streams, "
            f"axes {list(axes)!r}"
        )
    if not streams:
        return []
    chains = [(element,) for element in streams[0]]
    for axis, previous, stream in zip(axes[1:], streams, streams[1:]):
        if not chains:
            break
        by_tail: dict = {}
        for chain in chains:
            by_tail.setdefault(chain[-1], []).append(chain)
        pairs = stack_tree_desc(
            [e for e in previous if e in by_tail], stream, axis, context=context
        )
        chains = [chain + (d,) for a, d in pairs for chain in by_tail[a]]
    return chains
