"""Structural join algorithms on interval labels
(:mod:`repro.joins.stack_tree`): Stack-Tree-Desc, Lazy-Join's in-segment
subroutine; ``std_join``, the STD baseline over derived global labels; and
``path_chains``, a linear path's chains, one Stack-Tree-Desc per edge.

The merge-style containment join and the all-pairs join live in
``tests/helpers.py`` as the oracles the stack-based joins are held to.
"""

from repro.joins.stack_tree import (
    AXIS_CHILD, AXIS_DESCENDANT, path_chains, stack_tree_desc, std_join,
)

__all__ = [
    "stack_tree_desc",
    "std_join",
    "path_chains",
    "AXIS_DESCENDANT",
    "AXIS_CHILD",
]
