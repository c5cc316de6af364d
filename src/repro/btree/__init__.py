"""In-memory B+-tree substrate.

Provides :class:`~repro.btree.bptree.BPlusTree`, the ordered-map structure
backing the SB-tree of the update log and the interval-labeling baseline.
"""

from repro.btree.bptree import BPlusTree

__all__ = ["BPlusTree"]
