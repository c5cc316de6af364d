"""Structural join algorithms on interval labels.

- :func:`~repro.joins.stack_tree.stack_tree_desc` — Stack-Tree-Desc, the STD
  baseline and Lazy-Join's in-segment subroutine;
- :func:`~repro.joins.path_stack.path_stack` — the holistic PathStack kernel
  of the twig executor.

The merge-style containment join and the all-pairs join live in
``tests/helpers.py`` as the oracles the stack-based joins are held to.
"""

from repro.joins.path_stack import path_stack
from repro.joins.stack_tree import AXIS_CHILD, AXIS_DESCENDANT, stack_tree_desc

__all__ = [
    "stack_tree_desc",
    "path_stack",
    "AXIS_DESCENDANT",
    "AXIS_CHILD",
]
