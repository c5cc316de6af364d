"""PathStack — holistic linear path matching (Bruno, Koudas & Srivastava).

The paper cites the holistic twig-join line of work (reference [2]) as the
state of the art it composes with; this module implements its linear-path
core, PathStack; the twig executor (:mod:`repro.twig.evaluate`) runs it over
a pattern's trunk, where its pairwise baseline evaluates the same chains
with pipelined binary joins.

PathStack scans one sorted element stream per path step, maintaining one
stack per step; each pushed entry records the height of the previous step's
stack, so every root-to-leaf chain of the path is encoded compactly and
emitted exactly once when a leaf-step element is pushed.  Unlike the
binary-join pipeline it never materializes intermediate step results — the
"holistic" property.

Elements are any objects with ``start``, ``end`` (end-exclusive) and
``level``; chains are emitted as tuples, one element per step.  Child axes
are enforced during solution expansion via the ``level`` fields (the
standard extension of the descendant-only textbook algorithm).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import QueryError
from repro.joins.stack_tree import AXIS_CHILD, AXIS_DESCENDANT

__all__ = ["path_stack"]

_AXES = (AXIS_DESCENDANT, AXIS_CHILD)


class _Entry:
    __slots__ = ("element", "parent_height")

    def __init__(self, element, parent_height: int):
        self.element = element
        self.parent_height = parent_height


def path_stack(
    streams: Sequence[Sequence],
    axes: Sequence[str],
) -> list[tuple]:
    """Match a linear path against per-step element streams.

    ``streams[i]`` holds step *i*'s elements sorted by ``start``;
    ``axes[i]`` (for ``i >= 1``) is the axis connecting step *i* to step
    ``i-1``.  ``axes[0]`` is ignored (conventionally ``"descendant"``).

    Returns every match as a tuple of one element per step, ordered by the
    leaf element's position.
    """
    if len(axes) != len(streams):
        raise QueryError(
            f"need one axis per step: {len(streams)} streams, {len(axes)} axes"
        )
    for axis in axes:
        if axis not in _AXES:
            raise QueryError(f"axis must be one of {_AXES}, got {axis!r}")
    n_steps = len(streams)
    if n_steps == 0:
        return []
    if n_steps == 1:
        return [(element,) for element in streams[0]]

    positions = [0] * n_steps
    stacks: list[list[_Entry]] = [[] for _ in range(n_steps)]
    results: list[tuple] = []

    def next_element(step: int):
        if positions[step] < len(streams[step]):
            return streams[step][positions[step]]
        return None

    while True:
        # Pick the step whose next element starts first.
        q_min, q_element = -1, None
        for step in range(n_steps):
            candidate = next_element(step)
            if candidate is not None and (
                q_element is None or candidate.start < q_element.start
            ):
                q_min, q_element = step, candidate
        if q_element is None:
            break
        # Clean every stack of entries that ended before this element.
        for stack in stacks:
            while stack and stack[-1].element.end <= q_element.start:
                stack.pop()
        positions[q_min] += 1
        if q_min > 0 and not stacks[q_min - 1]:
            continue  # no live ancestor chain for this element
        parent_height = len(stacks[q_min - 1]) - 1 if q_min > 0 else -1
        stacks[q_min].append(_Entry(q_element, parent_height))
        if q_min == n_steps - 1:
            _expand(stacks, axes, stacks[q_min][-1], n_steps - 1, (), results)
            stacks[q_min].pop()  # leaf entries never become ancestors
    return results


def _expand(
    stacks: list[list[_Entry]],
    axes: Sequence[str],
    entry: _Entry,
    step: int,
    suffix: tuple,
    results: list[tuple],
) -> None:
    """Enumerate all chains ending at ``entry`` (recursing toward step 0)."""
    chain_suffix = (entry.element,) + suffix
    if step == 0:
        results.append(chain_suffix)
        return
    child_axis = axes[step] == AXIS_CHILD
    for index in range(entry.parent_height + 1):
        ancestor = stacks[step - 1][index]
        if ancestor.element.start >= entry.element.start:
            # Same element arriving via two streams (repeated tag in the
            # path, e.g. a//a): containment must stay strict.
            continue
        if child_axis and ancestor.element.level + 1 != entry.element.level:
            continue
        _expand(stacks, axes, ancestor, step - 1, chain_suffix, results)
