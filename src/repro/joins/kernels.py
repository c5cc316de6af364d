"""Column-at-a-time join kernels: the inner loops of the joins.

The compiled read path (:mod:`repro.core.readpath`) freezes each
segment's element lists into flat, start-sorted ``array('q')`` columns.
This module runs the join loops over those columns a *run* at a time
instead of an element at a time:

- :func:`std_pairs_python` — Stack-Tree-Desc where the unit of work is a
  run of consecutive descendants sharing one ancestor stack.  The run's
  extent is found with two bisects over the start column (the next
  ancestor push and the top-of-stack expiry are the only stack events),
  and the run's pairs are emitted with a single C-level comprehension
  instead of a per-descendant interpreter loop.
- :func:`select_open` — the Step 3 cross-segment candidate scan
  (``ends[i] > branch`` over a bisected prefix), as one comprehension
  over zipped column slices.
- :func:`push_kept` — the Section 4.2 optimization-(i) filter as one
  cursor merge over a segment's columns and its child lps.

**Parity contract.** Every kernel consumes start-sorted element sequences
from a tree labeling: intervals are laminar (no partial overlap), starts
are unique within one list, and ``end > start``.  On that domain
:func:`std_pairs_python` returns the byte-identical pair list — same
pairs, same order — as the per-descendant frame walk kept in
``tests/helpers.py``, which ``tests/test_join_kernels.py`` asserts
property-style across adversarial layouts.  Budget *enforcement points*
differ (a run is one cancellation checkpoint instead of one descendant),
but charged totals and completed results are identical.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, repeat

__all__ = ["std_pairs_python", "select_open", "push_kept"]


# ----------------------------------------------------------------------
# Stack-Tree-Desc kernels


def _column(values, records, attr):
    """An indexable int column: the caller's precompiled one, or derived."""
    if values is not None:
        return values
    return [getattr(record, attr) for record in records]


def std_pairs_python(
    ancestors,
    descendants,
    *,
    child_only: bool = False,
    context=None,
    a_starts=None,
    a_ends=None,
    d_starts=None,
) -> list[tuple]:
    """Run-at-a-time Stack-Tree-Desc over start-sorted laminar lists.

    Between two stack events — the next ancestor push (first descendant
    starting strictly after the next unpushed ancestor) and the top
    frame's expiry (first descendant starting at or after the top's end,
    the minimal end on a nested stack) — every descendant sees the same
    stack, so its extent is two bisects and its pairs one comprehension.
    Column arguments are optional precompiled ``array('q')`` columns;
    omitted, they are derived from the records.
    """
    n_a = len(ancestors)
    n_d = len(descendants)
    if not n_a or not n_d:
        return []
    a_starts = _column(a_starts, ancestors, "start")
    a_ends = _column(a_ends, ancestors, "end")
    d_starts = _column(d_starts, descendants, "start")
    # Record materialization is deferred until the merge proves it will
    # emit: a push (descendant axis) or a survived stack (child axis)
    # implies at least one record access, so lazy compiled columns (the
    # read-path cache's ``CompiledElements``) stay column-only through
    # pure counting scans.  ``getattr`` falls through to the argument
    # itself for plain record sequences.
    a_recs = None
    d_recs = None
    results: list[tuple] = []
    stack_recs: list = []
    stack_ends: list[int] = []
    ai = 0
    di = 0
    while di < n_d:
        if context is not None:
            context.tick()
        ds = d_starts[di]
        if not stack_recs:
            if ai >= n_a:
                break
            nxt = a_starts[ai]
            if ds <= nxt:
                # No pair is possible before the next ancestor starts:
                # gallop the whole descendant run with one bisect.
                di = bisect_right(d_starts, nxt, di, n_d)
                continue
        # Push every ancestor starting strictly before this descendant.
        while ai < n_a and a_starts[ai] < ds:
            a_end = a_ends[ai]
            if a_end <= ds:
                # Expires before any remaining descendant starts (starts
                # ascend): it can never contain one, so it would only be
                # pushed and immediately expired.  Skip the frame churn —
                # this is what makes disjoint inputs a pure counting scan.
                ai += 1
                continue
            a_start = a_starts[ai]
            while stack_ends and stack_ends[-1] <= a_start:
                stack_ends.pop()
                stack_recs.pop()
            if a_recs is None:
                a_recs = getattr(ancestors, "records", ancestors)
            stack_recs.append(a_recs[ai])
            stack_ends.append(a_end)
            ai += 1
        # Expire frames that end at or before this descendant's start.
        while stack_ends and stack_ends[-1] <= ds:
            stack_ends.pop()
            stack_recs.pop()
        if not stack_recs:
            continue
        if d_recs is None:
            d_recs = getattr(descendants, "records", descendants)
        # The run: descendants before the top frame expires (nested stack
        # means the top holds the minimal end) and not past the next
        # ancestor's start (a push happens only for d.start > a.start).
        # Single-descendant runs (alternating shapes) are detected with
        # two comparisons instead of two bisects: descendant ``di`` is
        # always inside the run, so it is alone in it exactly when the
        # next start already crosses one of the run bounds.
        ndi = di + 1
        if ndi >= n_d or d_starts[ndi] >= stack_ends[-1] or (
            ai < n_a and d_starts[ndi] > a_starts[ai]
        ):
            d = d_recs[di]
            if child_only:
                top = stack_recs[-1]
                if top.level + 1 == d.level:
                    results.append((top, d))
                    if context is not None:
                        context.charge_rows(1)
            elif len(stack_recs) == 1:
                results.append((stack_recs[0], d))
                if context is not None:
                    context.charge_rows(1)
            else:
                results.extend(zip(stack_recs, repeat(d)))
                if context is not None:
                    context.charge_rows(len(stack_recs))
            di = ndi
            continue
        hi = bisect_left(d_starts, stack_ends[-1], ndi, n_d)
        if ai < n_a:
            cap = bisect_right(d_starts, a_starts[ai], ndi, n_d)
            if cap < hi:
                hi = cap
        run = d_recs[di:hi]
        if child_only:
            top = stack_recs[-1]
            want = top.level + 1
            emitted = [(top, d) for d in run if d.level == want]
            if emitted:
                results.extend(emitted)
                if context is not None:
                    context.charge_rows(len(emitted))
        else:
            # Descendant-major emission, ancestors ascending by start
            # (stack order) within each descendant — all C-level: one
            # zip per descendant for deep stacks, one zip total for the
            # common single-ancestor stack.
            if len(stack_recs) == 1:
                results.extend(zip(repeat(stack_recs[0]), run))
            else:
                srecs = stack_recs
                results.extend(
                    chain.from_iterable(
                        [zip(srecs, repeat(d)) for d in run]
                    )
                )
            if context is not None:
                context.charge_rows(len(stack_recs) * len(run))
        di = hi
    return results


# ----------------------------------------------------------------------
# cross-segment candidate-scan kernels (the Step 3 bisect cascade)


def select_open(records, ends, hi: int, branch: int, out: list) -> None:
    """Append ``records[i]`` for ``i < hi`` with ``ends[i] > branch``.

    One C-level column slice plus a zipped comprehension — the caller has
    already bisected ``hi`` (count of starts below the branch point) and
    pre-screened the frame via its prefix-max column.
    """
    out.extend(
        [record for record, end in zip(records, ends[:hi]) if end > branch]
    )


# ----------------------------------------------------------------------
# push-list compile kernels (the Section 4.2 optimization-(i) filter)


def push_kept(starts, ends, lps) -> list | None:
    """Indices of elements containing at least one child insertion point.

    ``starts``/``ends`` are a segment's start-sorted element columns;
    ``lps`` the (sorted) child lps.  An element survives iff the first lp
    strictly past its start lies inside its span — one O(n + m) cursor
    merge, since starts ascend.  Returns ``None`` when *every* element
    survives (the caller shares its columns outright) — the common case
    for densely chopped documents, decided without building a list copy.
    """
    n_lps = len(lps)
    li = 0
    kept: list[int] = []
    n = len(starts)
    for i, start in enumerate(starts):
        while li < n_lps and lps[li] <= start:
            li += 1
        if li == n_lps:
            # Later elements start even further right: no child lp can
            # fall inside any of their spans either.
            break
        if lps[li] < ends[i]:
            kept.append(i)
    if len(kept) == n:
        return None
    return kept
