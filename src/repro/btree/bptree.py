"""A generic in-memory B+-tree.

This is the storage substrate of the interval-labeling baseline's element
index.  The paper assumes B+-trees both for the update log and for the
element index; the update log here asks only point questions, so its
SB-tree is the ER-tree's sid map (DESIGN.md §2).  Implementing
one real B+-tree (rather than wrapping a ``dict``) preserves the
access-cost structure that the paper's complexity analysis counts:
``O(log n)`` node visits per lookup and contiguous leaf scans for range
queries.  (The lazy element index itself is per-segment blocks addressed
by sid — :mod:`repro.core.element_index`.)

Keys may be any mutually comparable values; the library uses tuples of
integers throughout.  Keys are unique: inserting an existing key replaces its
value.

The implementation is a textbook B+-tree:

- leaves hold ``(key, value)`` pairs and are doubly linked for ordered scans;
- internal nodes hold separator keys and child pointers;
- deletion rebalances by borrowing from a sibling or merging with it.

The ``order`` parameter is the maximum number of keys a node may hold
(i.e. the fan-out minus one for internal nodes).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator

from repro.errors import KeyNotFoundError

__all__ = ["BPlusTree"]

_MIN_ORDER = 3
_DEFAULT_ORDER = 64


class _Node:
    """Base node: ``keys`` is always sorted ascending."""

    __slots__ = ("keys", "parent")

    def __init__(self):
        self.keys: list = []
        self.parent: _Internal | None = None

    @property
    def is_leaf(self) -> bool:
        raise NotImplementedError


class _Leaf(_Node):
    __slots__ = ("values", "next", "prev")

    def __init__(self):
        super().__init__()
        self.values: list = []
        self.next: _Leaf | None = None
        self.prev: _Leaf | None = None

    @property
    def is_leaf(self) -> bool:
        return True


class _Internal(_Node):
    __slots__ = ("children",)

    def __init__(self):
        super().__init__()
        # len(children) == len(keys) + 1; child[i] holds keys < keys[i],
        # child[i+1] holds keys >= keys[i].
        self.children: list[_Node] = []

    @property
    def is_leaf(self) -> bool:
        return False


class BPlusTree:
    """An ordered key → value map backed by a B+-tree.

    >>> t = BPlusTree(order=4)
    >>> for i in range(10):
    ...     t.insert(i, i * i)
    >>> t.get(3)
    9
    >>> list(t.range(2, 5))
    [(2, 4), (3, 9), (4, 16)]
    >>> t.delete(3)
    >>> 3 in t
    False
    """

    def __init__(self, order: int = _DEFAULT_ORDER):
        if order < _MIN_ORDER:
            raise ValueError(f"order must be >= {_MIN_ORDER}, got {order}")
        self._order = order
        self._root: _Node = _Leaf()
        self._size = 0
        self._height = 1

    # ------------------------------------------------------------------
    # basic properties

    @property
    def order(self) -> int:
        """Maximum number of keys per node."""
        return self._order

    @property
    def height(self) -> int:
        """Number of levels, counting the leaf level (1 for an empty tree)."""
        return self._height

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, key) -> bool:
        leaf, idx = self._find(key)
        return idx < len(leaf.keys) and leaf.keys[idx] == key

    def node_count(self) -> int:
        """Total number of nodes (used for size accounting in Fig. 11(a))."""
        count = 0
        stack: list[_Node] = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.extend(node.children)  # type: ignore[union-attr]
        return count

    def approximate_bytes(self) -> int:
        """A crude size estimate used by the Fig. 11(a) experiment.

        Counts 8 bytes per key component / value slot / child pointer, which
        mirrors the fixed-width integer layout the paper's C++ implementation
        would have used.
        """
        total = 0
        stack: list[_Node] = [self._root]
        while stack:
            node = stack.pop()
            key_width = 0
            for key in node.keys:
                key_width += 8 * (len(key) if isinstance(key, tuple) else 1)
            total += key_width
            if node.is_leaf:
                total += 8 * len(node.values)  # type: ignore[union-attr]
            else:
                total += 8 * len(node.children)  # type: ignore[union-attr]
                stack.extend(node.children)  # type: ignore[union-attr]
        return total

    # ------------------------------------------------------------------
    # lookup

    def _find_leaf(self, key) -> _Leaf:
        node = self._root
        while not node.is_leaf:
            idx = bisect_right(node.keys, key)
            node = node.children[idx]  # type: ignore[union-attr]
        return node  # type: ignore[return-value]

    def _find(self, key) -> tuple[_Leaf, int]:
        leaf = self._find_leaf(key)
        return leaf, bisect_left(leaf.keys, key)

    def get(self, key, default=None):
        """Return the value for ``key``, or ``default`` when absent."""
        leaf, idx = self._find(key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return leaf.values[idx]
        return default

    def __getitem__(self, key):
        leaf, idx = self._find(key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return leaf.values[idx]
        raise KeyNotFoundError(key)

    def first(self):
        """Return the smallest ``(key, value)`` pair.

        Raises :class:`~repro.errors.KeyNotFoundError` on an empty tree.
        """
        if not self._size:
            raise KeyNotFoundError("<first of empty tree>")
        node = self._root
        while not node.is_leaf:
            node = node.children[0]  # type: ignore[union-attr]
        return node.keys[0], node.values[0]  # type: ignore[union-attr]

    def last(self):
        """Return the largest ``(key, value)`` pair."""
        if not self._size:
            raise KeyNotFoundError("<last of empty tree>")
        node = self._root
        while not node.is_leaf:
            node = node.children[-1]  # type: ignore[union-attr]
        return node.keys[-1], node.values[-1]  # type: ignore[union-attr]

    def floor(self, key):
        """Return the largest ``(k, v)`` with ``k <= key``, or ``None``."""
        leaf, idx = self._find(key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return leaf.keys[idx], leaf.values[idx]
        if idx > 0:
            return leaf.keys[idx - 1], leaf.values[idx - 1]
        prev = leaf.prev
        if prev is not None and prev.keys:
            return prev.keys[-1], prev.values[-1]
        return None

    def ceiling(self, key):
        """Return the smallest ``(k, v)`` with ``k >= key``, or ``None``."""
        leaf, idx = self._find(key)
        if idx < len(leaf.keys):
            return leaf.keys[idx], leaf.values[idx]
        nxt = leaf.next
        if nxt is not None and nxt.keys:
            return nxt.keys[0], nxt.values[0]
        return None

    # ------------------------------------------------------------------
    # iteration

    def _first_leaf(self) -> _Leaf:
        node = self._root
        while not node.is_leaf:
            node = node.children[0]  # type: ignore[union-attr]
        return node  # type: ignore[return-value]

    def items(self) -> Iterator[tuple]:
        """Yield all ``(key, value)`` pairs in ascending key order."""
        leaf: _Leaf | None = self._first_leaf()
        while leaf is not None:
            yield from zip(leaf.keys, leaf.values)
            leaf = leaf.next

    def keys(self) -> Iterator:
        for key, _ in self.items():
            yield key

    def values(self) -> Iterator:
        for _, value in self.items():
            yield value

    def __iter__(self) -> Iterator:
        return self.keys()

    def range(self, lo=None, hi=None, *, inclusive=(True, False)) -> Iterator[tuple]:
        """Yield ``(key, value)`` pairs with ``lo <= key < hi`` (default bounds).

        ``lo=None`` / ``hi=None`` leave that side unbounded.  ``inclusive``
        controls closed/open endpoints as ``(lo_closed, hi_closed)``.
        """
        lo_closed, hi_closed = inclusive
        if lo is None:
            leaf: _Leaf | None = self._first_leaf()
            idx = 0
        else:
            leaf, idx = self._find(lo)
            if not lo_closed:
                while (
                    leaf is not None
                    and idx < len(leaf.keys)
                    and leaf.keys[idx] == lo
                ):
                    idx += 1
                    if idx >= len(leaf.keys):
                        leaf, idx = leaf.next, 0
        while leaf is not None:
            keys = leaf.keys
            n = len(keys)
            while idx < n:
                key = keys[idx]
                if hi is not None:
                    if hi_closed:
                        if key > hi:
                            return
                    elif key >= hi:
                        return
                yield key, leaf.values[idx]
                idx += 1
            leaf, idx = leaf.next, 0

    def leaf_slices(self, lo=None, hi=None) -> Iterator[list]:
        """Yield per-leaf key chunks covering ``lo <= key < hi``, in order.

        The bulk leaf-scan primitive behind :meth:`range_keys`: one
        Python-level step per *leaf*, each chunk produced by a C-level list slice (or the
        leaf's whole key list when no trimming is needed).  Chunks may
        alias live leaf storage — callers must not mutate a chunk or the
        tree while consuming the iterator.
        """
        if lo is None:
            leaf: _Leaf | None = self._first_leaf()
            idx = 0
        else:
            leaf, idx = self._find(lo)
        while leaf is not None:
            keys = leaf.keys
            if hi is not None and keys and keys[-1] >= hi:
                chunk = keys[idx : bisect_left(keys, hi, idx)]
                if chunk:
                    yield chunk
                return
            if idx:
                chunk = keys[idx:]
                if chunk:
                    yield chunk
            elif keys:
                yield keys
            leaf, idx = leaf.next, 0

    def range_keys(self, lo=None, hi=None) -> list:
        """Keys with ``lo <= key < hi`` (default bounds) as one list.

        The bulk form of :meth:`range` for key-only scans: whole-leaf list
        slices (:meth:`leaf_slices`) replace per-key generator resumption,
        so the cost is one Python-level step per *leaf* rather than per
        key.
        """
        out: list = []
        for chunk in self.leaf_slices(lo, hi):
            out.extend(chunk)
        return out

    # ------------------------------------------------------------------
    # insertion

    def insert(self, key, value) -> None:
        """Insert ``key`` → ``value``, replacing any existing binding."""
        leaf, idx = self._find(key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            leaf.values[idx] = value
            return
        leaf.keys.insert(idx, key)
        leaf.values.insert(idx, value)
        self._size += 1
        if len(leaf.keys) > self._order:
            self._split_leaf(leaf)

    def __setitem__(self, key, value) -> None:
        self.insert(key, value)

    def _split_leaf(self, leaf: _Leaf) -> None:
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        right.next = leaf.next
        if right.next is not None:
            right.next.prev = right
        right.prev = leaf
        leaf.next = right
        self._insert_into_parent(leaf, right.keys[0], right)

    def _insert_into_parent(self, left: _Node, sep_key, right: _Node) -> None:
        parent = left.parent
        if parent is None:
            new_root = _Internal()
            new_root.keys = [sep_key]
            new_root.children = [left, right]
            left.parent = new_root
            right.parent = new_root
            self._root = new_root
            self._height += 1
            return
        idx = bisect_right(parent.keys, sep_key)
        parent.keys.insert(idx, sep_key)
        parent.children.insert(idx + 1, right)
        right.parent = parent
        if len(parent.keys) > self._order:
            self._split_internal(parent)

    def _split_internal(self, node: _Internal) -> None:
        mid = len(node.keys) // 2
        sep_key = node.keys[mid]
        right = _Internal()
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        for child in right.children:
            child.parent = right
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        self._insert_into_parent(node, sep_key, right)

    # ------------------------------------------------------------------
    # deletion

    def delete(self, key) -> None:
        """Remove ``key``; raise :class:`KeyNotFoundError` when absent."""
        leaf, idx = self._find(key)
        if idx >= len(leaf.keys) or leaf.keys[idx] != key:
            raise KeyNotFoundError(key)
        del leaf.keys[idx]
        del leaf.values[idx]
        self._size -= 1
        self._rebalance_after_delete(leaf)

    def discard(self, key) -> bool:
        """Remove ``key`` if present; return whether a removal happened."""
        try:
            self.delete(key)
        except KeyNotFoundError:
            return False
        return True

    def pop(self, key, *default):
        """Remove ``key`` and return its value (or ``default`` when given)."""
        leaf, idx = self._find(key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            value = leaf.values[idx]
            del leaf.keys[idx]
            del leaf.values[idx]
            self._size -= 1
            self._rebalance_after_delete(leaf)
            return value
        if default:
            return default[0]
        raise KeyNotFoundError(key)

    def _min_keys(self) -> int:
        return self._order // 2

    def _rebalance_after_delete(self, node: _Node) -> None:
        min_keys = self._min_keys()
        while node is not self._root and len(node.keys) < min_keys:
            parent = node.parent
            assert parent is not None
            child_idx = parent.children.index(node)
            if self._try_borrow(parent, child_idx):
                return
            node = self._merge(parent, child_idx)
        if node is self._root and not node.is_leaf and len(node.keys) == 0:
            # The root emptied out: its single child becomes the new root.
            child = node.children[0]  # type: ignore[union-attr]
            child.parent = None
            self._root = child
            self._height -= 1

    def _try_borrow(self, parent: _Internal, child_idx: int) -> bool:
        node = parent.children[child_idx]
        min_keys = self._min_keys()
        # Borrow from the left sibling.
        if child_idx > 0:
            left = parent.children[child_idx - 1]
            if len(left.keys) > min_keys:
                if node.is_leaf:
                    node.keys.insert(0, left.keys.pop())
                    node.values.insert(0, left.values.pop())  # type: ignore[union-attr]
                    parent.keys[child_idx - 1] = node.keys[0]
                else:
                    sep = parent.keys[child_idx - 1]
                    node.keys.insert(0, sep)
                    parent.keys[child_idx - 1] = left.keys.pop()
                    child = left.children.pop()  # type: ignore[union-attr]
                    child.parent = node
                    node.children.insert(0, child)  # type: ignore[union-attr]
                return True
        # Borrow from the right sibling.
        if child_idx + 1 < len(parent.children):
            right = parent.children[child_idx + 1]
            if len(right.keys) > min_keys:
                if node.is_leaf:
                    node.keys.append(right.keys.pop(0))
                    node.values.append(right.values.pop(0))  # type: ignore[union-attr]
                    parent.keys[child_idx] = right.keys[0]
                else:
                    sep = parent.keys[child_idx]
                    node.keys.append(sep)
                    parent.keys[child_idx] = right.keys.pop(0)
                    child = right.children.pop(0)  # type: ignore[union-attr]
                    child.parent = node
                    node.children.append(child)  # type: ignore[union-attr]
                return True
        return False

    def _merge(self, parent: _Internal, child_idx: int) -> _Node:
        """Merge ``children[child_idx]`` with a sibling; return the parent."""
        if child_idx > 0:
            left_idx = child_idx - 1
        else:
            left_idx = child_idx
        left = parent.children[left_idx]
        right = parent.children[left_idx + 1]
        sep_idx = left_idx
        if left.is_leaf:
            left.keys.extend(right.keys)
            left.values.extend(right.values)  # type: ignore[union-attr]
            left.next = right.next  # type: ignore[union-attr]
            if left.next is not None:  # type: ignore[union-attr]
                left.next.prev = left  # type: ignore[union-attr]
        else:
            left.keys.append(parent.keys[sep_idx])
            left.keys.extend(right.keys)
            for child in right.children:  # type: ignore[union-attr]
                child.parent = left
            left.children.extend(right.children)  # type: ignore[union-attr]
        del parent.keys[sep_idx]
        del parent.children[sep_idx + 1]
        return parent

    # ------------------------------------------------------------------
    # bulk operations

    @classmethod
    def bulk_load(cls, items: Iterable[tuple], order: int = _DEFAULT_ORDER) -> "BPlusTree":
        """Build a tree from ``(key, value)`` pairs sorted ascending by key.

        This is the LS-mode "build the B+-tree from scratch just before
        querying" path (Section 5.1).  Leaves are packed to ~ ``order`` keys,
        which yields a tree denser than one grown by repeated insertion.
        """
        tree = cls(order=order)
        pairs = list(items)
        if not pairs:
            return tree
        for i in range(1, len(pairs)):
            if pairs[i - 1][0] >= pairs[i][0]:
                raise ValueError(
                    "bulk_load requires strictly ascending keys; "
                    f"violated at position {i}"
                )
        # Build the leaf level.
        leaves: list[_Leaf] = []
        per_leaf = max(2, order)
        for start in range(0, len(pairs), per_leaf):
            chunk = pairs[start : start + per_leaf]
            leaf = _Leaf()
            leaf.keys = [k for k, _ in chunk]
            leaf.values = [v for _, v in chunk]
            if leaves:
                leaves[-1].next = leaf
                leaf.prev = leaves[-1]
            leaves.append(leaf)
        # Avoid an underfull final leaf (steal one entry from its neighbour).
        if len(leaves) > 1 and len(leaves[-1].keys) < 2:
            prev = leaves[-2]
            leaves[-1].keys.insert(0, prev.keys.pop())
            leaves[-1].values.insert(0, prev.values.pop())
        tree._size = len(pairs)
        level: list[_Node] = list(leaves)
        height = 1
        while len(level) > 1:
            next_level: list[_Node] = []
            per_node = max(2, order)
            for start in range(0, len(level), per_node):
                group = level[start : start + per_node]
                if len(group) == 1:
                    # A lone trailing child: merge it into the previous node.
                    prev_node = next_level[-1]  # type: ignore[assignment]
                    assert isinstance(prev_node, _Internal)
                    prev_node.keys.append(_leftmost_key(group[0]))
                    prev_node.children.append(group[0])
                    group[0].parent = prev_node
                    continue
                node = _Internal()
                node.children = group
                for child in group:
                    child.parent = node
                node.keys = [_leftmost_key(child) for child in group[1:]]
                next_level.append(node)
            level = next_level
            height += 1
        tree._root = level[0]
        tree._root.parent = None
        tree._height = height
        return tree

    def clear(self) -> None:
        """Remove every entry."""
        self._root = _Leaf()
        self._size = 0
        self._height = 1

    # ------------------------------------------------------------------
    # invariant checking (used by tests)

    def check_invariants(self) -> None:
        """Verify structural invariants; raise ``AssertionError`` on breakage.

        Checked: sortedness in every node, separator correctness, leaf-chain
        order and completeness, parent pointers, uniform leaf depth, and
        occupancy bounds.
        """
        min_keys = self._min_keys()
        leaf_depths: set[int] = set()
        count = 0

        def walk(node: _Node, depth: int, lo, hi) -> None:
            nonlocal count
            assert all(
                node.keys[i] < node.keys[i + 1] for i in range(len(node.keys) - 1)
            ), "node keys not strictly ascending"
            for key in node.keys:
                if lo is not None:
                    assert key >= lo, "key below subtree lower bound"
                if hi is not None:
                    assert key < hi, "key above subtree upper bound"
            if node is not self._root:
                assert len(node.keys) >= (1 if node.is_leaf else 1), "empty node"
                if node.is_leaf:
                    assert len(node.keys) >= min(min_keys, 1)
            assert len(node.keys) <= self._order + (0 if node is self._root else 0) or (
                len(node.keys) <= self._order
            )
            if node.is_leaf:
                leaf_depths.add(depth)
                count += len(node.keys)
                return
            internal = node
            assert isinstance(internal, _Internal)
            assert len(internal.children) == len(internal.keys) + 1
            for i, child in enumerate(internal.children):
                assert child.parent is internal, "broken parent pointer"
                child_lo = internal.keys[i - 1] if i > 0 else lo
                child_hi = internal.keys[i] if i < len(internal.keys) else hi
                walk(child, depth + 1, child_lo, child_hi)

        walk(self._root, 1, None, None)
        assert len(leaf_depths) <= 1, "leaves at differing depths"
        assert count == self._size, f"size mismatch: {count} != {self._size}"
        # Leaf chain must visit every key in ascending order.
        chained = [k for k, _ in self.items()]
        assert chained == sorted(chained), "leaf chain out of order"
        assert len(chained) == self._size, "leaf chain incomplete"


def _leftmost_key(node: _Node):
    while not node.is_leaf:
        node = node.children[0]  # type: ignore[union-attr]
    return node.keys[0]
