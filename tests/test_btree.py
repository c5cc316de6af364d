"""Unit and property tests for the generic B+-tree substrate."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree import BPlusTree
from repro.errors import KeyNotFoundError


class TestBasics:
    def test_empty_tree(self):
        tree = BPlusTree()
        assert len(tree) == 0
        assert not tree
        assert 1 not in tree
        assert tree.get(1) is None
        assert tree.get(1, "x") == "x"
        assert list(tree.items()) == []
        assert tree.height == 1

    def test_single_insert_get(self):
        tree = BPlusTree()
        tree.insert(5, "five")
        assert tree[5] == "five"
        assert 5 in tree
        assert len(tree) == 1

    def test_insert_replaces_existing(self):
        tree = BPlusTree()
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert tree[1] == "b"
        assert len(tree) == 1

    def test_setitem_getitem(self):
        tree = BPlusTree()
        tree[3] = 9
        assert tree[3] == 9

    def test_getitem_missing_raises(self):
        tree = BPlusTree()
        with pytest.raises(KeyNotFoundError):
            tree[42]

    def test_min_order_enforced(self):
        with pytest.raises(ValueError):
            BPlusTree(order=2)

    def test_order_property(self):
        assert BPlusTree(order=7).order == 7

    def test_tuple_keys(self):
        tree = BPlusTree(order=4)
        tree.insert((1, 2), "a")
        tree.insert((1, 1), "b")
        tree.insert((0, 9), "c")
        assert list(tree.keys()) == [(0, 9), (1, 1), (1, 2)]

    def test_bool_nonempty(self):
        tree = BPlusTree()
        tree.insert(1, 1)
        assert tree


class TestSplitsAndOrder:
    def test_sequential_inserts_stay_sorted(self):
        tree = BPlusTree(order=4)
        for i in range(100):
            tree.insert(i, i)
        assert list(tree.keys()) == list(range(100))
        tree.check_invariants()

    def test_reverse_inserts_stay_sorted(self):
        tree = BPlusTree(order=4)
        for i in reversed(range(100)):
            tree.insert(i, i)
        assert list(tree.keys()) == list(range(100))
        tree.check_invariants()

    def test_random_inserts_match_dict(self):
        tree = BPlusTree(order=4)
        reference = {}
        rnd = random.Random(7)
        for _ in range(500):
            key = rnd.randrange(200)
            tree.insert(key, key * 3)
            reference[key] = key * 3
        assert dict(tree.items()) == reference
        tree.check_invariants()

    def test_height_grows(self):
        tree = BPlusTree(order=4)
        for i in range(200):
            tree.insert(i, i)
        assert tree.height >= 3

    def test_node_count_positive(self):
        tree = BPlusTree(order=4)
        for i in range(50):
            tree.insert(i, i)
        assert tree.node_count() > 1

    def test_approximate_bytes_grows(self):
        tree = BPlusTree(order=4)
        sizes = []
        for i in range(60):
            tree.insert(i, i)
            if i % 20 == 19:
                sizes.append(tree.approximate_bytes())
        assert sizes == sorted(sizes)
        assert sizes[0] > 0


class TestLookups:
    @pytest.fixture
    def tree(self):
        tree = BPlusTree(order=4)
        for i in range(0, 100, 2):  # even keys 0..98
            tree.insert(i, i * 10)
        return tree

    def test_first_last(self, tree):
        assert tree.first() == (0, 0)
        assert tree.last() == (98, 980)

    def test_first_empty_raises(self):
        with pytest.raises(KeyNotFoundError):
            BPlusTree().first()

    def test_last_empty_raises(self):
        with pytest.raises(KeyNotFoundError):
            BPlusTree().last()

    def test_floor_exact(self, tree):
        assert tree.floor(50) == (50, 500)

    def test_floor_between(self, tree):
        assert tree.floor(51) == (50, 500)

    def test_floor_below_min(self, tree):
        assert tree.floor(-1) is None

    def test_floor_above_max(self, tree):
        assert tree.floor(1000) == (98, 980)

    def test_ceiling_exact(self, tree):
        assert tree.ceiling(50) == (50, 500)

    def test_ceiling_between(self, tree):
        assert tree.ceiling(51) == (52, 520)

    def test_ceiling_above_max(self, tree):
        assert tree.ceiling(99) is None

    def test_ceiling_below_min(self, tree):
        assert tree.ceiling(-5) == (0, 0)


class TestRange:
    @pytest.fixture
    def tree(self):
        tree = BPlusTree(order=4)
        for i in range(20):
            tree.insert(i, str(i))
        return tree

    def test_range_default_half_open(self, tree):
        assert [k for k, _ in tree.range(3, 7)] == [3, 4, 5, 6]

    def test_range_closed_closed(self, tree):
        keys = [k for k, _ in tree.range(3, 7, inclusive=(True, True))]
        assert keys == [3, 4, 5, 6, 7]

    def test_range_open_lo(self, tree):
        keys = [k for k, _ in tree.range(3, 7, inclusive=(False, False))]
        assert keys == [4, 5, 6]

    def test_range_unbounded_lo(self, tree):
        assert [k for k, _ in tree.range(None, 3)] == [0, 1, 2]

    def test_range_unbounded_hi(self, tree):
        assert [k for k, _ in tree.range(17, None)] == [17, 18, 19]

    def test_range_fully_unbounded(self, tree):
        assert len(list(tree.range())) == 20

    def test_range_empty_window(self, tree):
        assert list(tree.range(7, 7)) == []

    def test_range_missing_lo_starts_at_ceiling(self, tree):
        tree.delete(5)
        assert [k for k, _ in tree.range(5, 8)] == [6, 7]

    def test_range_tuple_prefix_bounds(self):
        tree = BPlusTree(order=4)
        for sid in range(3):
            for start in range(4):
                tree.insert((1, sid, start), None)
        keys = [k for k, _ in tree.range((1, 1), (1, 2))]
        assert keys == [(1, 1, 0), (1, 1, 1), (1, 1, 2), (1, 1, 3)]


class TestDeletion:
    def test_delete_only_key(self):
        tree = BPlusTree()
        tree.insert(1, "a")
        tree.delete(1)
        assert len(tree) == 0
        assert 1 not in tree

    def test_delete_missing_raises(self):
        tree = BPlusTree()
        tree.insert(1, "a")
        with pytest.raises(KeyNotFoundError):
            tree.delete(2)

    def test_discard_returns_flag(self):
        tree = BPlusTree()
        tree.insert(1, "a")
        assert tree.discard(1) is True
        assert tree.discard(1) is False

    def test_pop_returns_value(self):
        tree = BPlusTree()
        tree.insert(1, "a")
        assert tree.pop(1) == "a"
        assert len(tree) == 0

    def test_pop_default(self):
        tree = BPlusTree()
        assert tree.pop(9, "dflt") == "dflt"

    def test_pop_missing_raises(self):
        tree = BPlusTree()
        with pytest.raises(KeyNotFoundError):
            tree.pop(9)

    def test_delete_all_sequential(self):
        tree = BPlusTree(order=4)
        for i in range(100):
            tree.insert(i, i)
        for i in range(100):
            tree.delete(i)
            tree.check_invariants()
        assert len(tree) == 0

    def test_delete_all_reverse(self):
        tree = BPlusTree(order=4)
        for i in range(100):
            tree.insert(i, i)
        for i in reversed(range(100)):
            tree.delete(i)
        tree.check_invariants()
        assert len(tree) == 0

    def test_interleaved_insert_delete_matches_dict(self):
        tree = BPlusTree(order=4)
        reference = {}
        rnd = random.Random(13)
        for step in range(2000):
            key = rnd.randrange(300)
            if rnd.random() < 0.5:
                tree.insert(key, step)
                reference[key] = step
            else:
                if tree.discard(key):
                    del reference[key]
                else:
                    assert key not in reference
        assert dict(tree.items()) == reference
        tree.check_invariants()

    def test_height_shrinks_after_mass_delete(self):
        tree = BPlusTree(order=4)
        for i in range(500):
            tree.insert(i, i)
        tall = tree.height
        for i in range(495):
            tree.delete(i)
        tree.check_invariants()
        assert tree.height < tall

    def test_clear(self):
        tree = BPlusTree(order=4)
        for i in range(50):
            tree.insert(i, i)
        tree.clear()
        assert len(tree) == 0
        assert list(tree.items()) == []
        tree.insert(1, 1)
        assert tree[1] == 1


class TestBulkLoad:
    def test_bulk_load_empty(self):
        tree = BPlusTree.bulk_load([])
        assert len(tree) == 0

    def test_bulk_load_single(self):
        tree = BPlusTree.bulk_load([(1, "a")])
        assert tree[1] == "a"
        tree.check_invariants()

    @pytest.mark.parametrize("n", [2, 10, 63, 64, 65, 200, 1000])
    def test_bulk_load_sizes(self, n):
        tree = BPlusTree.bulk_load([(i, i) for i in range(n)], order=8)
        assert list(tree.keys()) == list(range(n))
        tree.check_invariants()

    def test_bulk_load_rejects_unsorted(self):
        with pytest.raises(ValueError):
            BPlusTree.bulk_load([(2, "a"), (1, "b")])

    def test_bulk_load_rejects_duplicates(self):
        with pytest.raises(ValueError):
            BPlusTree.bulk_load([(1, "a"), (1, "b")])

    def test_bulk_loaded_tree_is_mutable(self):
        tree = BPlusTree.bulk_load([(i, i) for i in range(100)], order=8)
        tree.insert(1000, 1000)
        tree.delete(50)
        tree.check_invariants()
        assert 1000 in tree and 50 not in tree

    def test_bulk_load_denser_than_grown(self):
        pairs = [(i, i) for i in range(1000)]
        grown = BPlusTree(order=8)
        for k, v in pairs:
            grown.insert(k, v)
        loaded = BPlusTree.bulk_load(pairs, order=8)
        assert loaded.node_count() <= grown.node_count()


@st.composite
def operation_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=150))
    ops = []
    for _ in range(n):
        key = draw(st.integers(min_value=0, max_value=60))
        kind = draw(st.sampled_from(["insert", "delete"]))
        ops.append((kind, key))
    return ops


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(operation_sequences())
    def test_matches_dict_model(self, ops):
        tree = BPlusTree(order=4)
        model: dict[int, int] = {}
        for step, (kind, key) in enumerate(ops):
            if kind == "insert":
                tree.insert(key, step)
                model[key] = step
            else:
                assert tree.discard(key) == (key in model)
                model.pop(key, None)
        assert sorted(tree.items()) == sorted(model.items())
        tree.check_invariants()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 1000), unique=True, min_size=1, max_size=200))
    def test_iteration_always_sorted(self, keys):
        tree = BPlusTree(order=4)
        for key in keys:
            tree.insert(key, None)
        assert list(tree.keys()) == sorted(keys)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 300), unique=True, min_size=1, max_size=120),
        st.integers(0, 300),
        st.integers(0, 300),
    )
    def test_range_matches_filter(self, keys, a, b):
        lo, hi = min(a, b), max(a, b)
        tree = BPlusTree(order=5)
        for key in keys:
            tree.insert(key, None)
        got = [k for k, _ in tree.range(lo, hi)]
        assert got == sorted(k for k in keys if lo <= k < hi)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 500), unique=True, min_size=1, max_size=150))
    def test_bulk_load_equals_insertion(self, keys):
        keys = sorted(keys)
        loaded = BPlusTree.bulk_load([(k, k) for k in keys], order=6)
        loaded.check_invariants()
        assert list(loaded.keys()) == keys

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 200), unique=True, min_size=2, max_size=100),
        st.integers(0, 200),
    )
    def test_floor_ceiling_consistent(self, keys, probe):
        tree = BPlusTree(order=4)
        for key in keys:
            tree.insert(key, None)
        floor = tree.floor(probe)
        ceiling = tree.ceiling(probe)
        below = [k for k in keys if k <= probe]
        above = [k for k in keys if k >= probe]
        assert (floor[0] if floor else None) == (max(below) if below else None)
        assert (ceiling[0] if ceiling else None) == (min(above) if above else None)
