"""In-memory B+-tree substrate.

Provides :class:`~repro.btree.bptree.BPlusTree`, the ordered-map structure
behind the interval-labeling baseline.
"""

from repro.btree.bptree import BPlusTree

__all__ = ["BPlusTree"]
