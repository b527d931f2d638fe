"""Tests for Path ORAM tree geometry."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.oram.tree import TreeGeometry


class TestGeometryBasics:
    def test_counts(self):
        tree = TreeGeometry(4)
        assert tree.leaf_count == 8
        assert tree.bucket_count == 15

    def test_single_level(self):
        tree = TreeGeometry(1)
        assert tree.leaf_count == 1
        assert tree.bucket_count == 1
        assert tree.path(0) == [0]

    def test_rejects_zero_levels(self):
        with pytest.raises(ValueError):
            TreeGeometry(0)

    def test_levels_of_buckets(self):
        tree = TreeGeometry(3)
        assert tree.level_of(0) == 0
        assert tree.level_of(1) == 1
        assert tree.level_of(2) == 1
        assert tree.level_of(3) == 2
        assert tree.level_of(6) == 2

    def test_bucket_at_roundtrip(self):
        tree = TreeGeometry(5)
        for level in range(5):
            for position in range(1 << level):
                bucket = tree.bucket_at(level, position)
                assert tree.level_of(bucket) == level
                assert tree.position_of(bucket) == position

    def test_bounds_checks(self):
        tree = TreeGeometry(3)
        with pytest.raises(ValueError):
            tree.level_of(7)
        with pytest.raises(ValueError):
            tree.path(8)
        with pytest.raises(ValueError):
            tree.bucket_at(3, 0)


class TestPaths:
    def test_path_structure(self):
        tree = TreeGeometry(4)
        assert tree.path(0) == [0, 1, 3, 7]
        assert tree.path(7) == [0, 2, 6, 14]

    def test_path_parent_links(self):
        tree = TreeGeometry(6)
        for leaf in range(tree.leaf_count):
            path = tree.path(leaf)
            assert path == [tree.bucket_at(level, leaf >> (5 - level))
                            for level in range(6)]
            assert path[0] == 0
            for upper, lower in zip(path, path[1:]):
                assert tree.parent(lower) == upper

    @given(st.integers(min_value=2, max_value=10), st.data())
    def test_on_path_consistency(self, levels, data):
        tree = TreeGeometry(levels)
        leaf = data.draw(st.integers(min_value=0,
                                     max_value=tree.leaf_count - 1))
        path = set(tree.path(leaf))
        for bucket in range(tree.bucket_count):
            assert tree.on_path(bucket, leaf) == (bucket in path)

    def test_root_on_every_path(self):
        tree = TreeGeometry(5)
        for leaf in range(tree.leaf_count):
            assert tree.on_path(0, leaf)


class TestCommonLevels:
    def test_same_leaf_is_full_depth(self):
        tree = TreeGeometry(6)
        assert tree.deepest_common_level(13, 13) == 5

    def test_opposite_halves_share_only_root(self):
        tree = TreeGeometry(6)
        assert tree.deepest_common_level(0, tree.leaf_count - 1) == 0

    def test_adjacent_leaves(self):
        tree = TreeGeometry(4)
        assert tree.deepest_common_level(0, 1) == 2

    @given(st.integers(min_value=2, max_value=12), st.data())
    def test_matches_path_intersection(self, levels, data):
        tree = TreeGeometry(levels)
        leaf_a = data.draw(st.integers(0, tree.leaf_count - 1))
        leaf_b = data.draw(st.integers(0, tree.leaf_count - 1))
        shared = set(tree.path(leaf_a)) & set(tree.path(leaf_b))
        assert tree.deepest_common_level(leaf_a, leaf_b) == \
            max(tree.level_of(bucket) for bucket in shared)

    def test_symmetry(self):
        tree = TreeGeometry(8)
        assert tree.deepest_common_level(3, 77) == \
            tree.deepest_common_level(77, 3)


class TestSubtreePartitioning:
    def test_two_partitions_split_halves(self):
        tree = TreeGeometry(5)
        half = tree.leaf_count // 2
        assert all(tree.subtree_of_leaf(leaf, 2) == 0
                   for leaf in range(half))
        assert all(tree.subtree_of_leaf(leaf, 2) == 1
                   for leaf in range(half, tree.leaf_count))

    def test_four_partitions(self):
        tree = TreeGeometry(5)
        quarter = tree.leaf_count // 4
        for leaf in range(tree.leaf_count):
            assert tree.subtree_of_leaf(leaf, 4) == leaf // quarter

    def test_subtree_levels(self):
        tree = TreeGeometry(28)
        assert tree.subtree_levels(2) == 27
        assert tree.subtree_levels(4) == 26

    def test_leaves_under(self):
        tree = TreeGeometry(4)
        assert list(tree.leaves_under(0)) == list(range(8))
        assert list(tree.leaves_under(1)) == [0, 1, 2, 3]
        assert list(tree.leaves_under(14)) == [7]

    def test_children(self):
        tree = TreeGeometry(3)
        assert tree.children(0) == [1, 2]
        assert tree.children(3) == []

    def test_parent_of_root_rejected(self):
        with pytest.raises(ValueError):
            TreeGeometry(3).parent(0)
