"""Tests for buckets, the stash eviction planner, and position maps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oram.bucket import DUMMY_TAG, Block, Bucket
from repro.oram.posmap import PositionMap
from repro.oram.stash import Stash
from repro.oram.tree import TreeGeometry
from repro.utils.rng import DeterministicRng


def block(address, leaf, size=16, fill=0xAB):
    return Block(address, leaf, bytes([fill]) * size)


class TestBucket:
    def test_insert_and_occupancy(self):
        bucket = Bucket(4, 16)
        assert bucket.occupancy == 0
        bucket.insert(block(1, 0))
        bucket.insert(block(2, 1))
        assert bucket.occupancy == 2
        assert not bucket.is_full

    def test_overflow_raises(self):
        bucket = Bucket(2, 16)
        bucket.insert(block(1, 0))
        bucket.insert(block(2, 0))
        with pytest.raises(OverflowError):
            bucket.insert(block(3, 0))

    def test_wrong_size_payload_rejected(self):
        bucket = Bucket(4, 16)
        with pytest.raises(ValueError):
            bucket.insert(Block(1, 0, b"short"))

    def test_clear_returns_blocks(self):
        bucket = Bucket(4, 16)
        bucket.insert(block(1, 0))
        bucket.insert(block(2, 1))
        removed = bucket.clear()
        assert sorted(item.address for item in removed) == [1, 2]
        assert bucket.occupancy == 0

    def test_serialize_constant_size(self):
        empty = Bucket(4, 16)
        full = Bucket(4, 16)
        for index in range(4):
            full.insert(block(index, index))
        assert len(empty.serialize()) == len(full.serialize())
        assert len(empty.serialize()) == empty.serialized_bytes

    @given(st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 2**20)),
                    max_size=4, unique_by=lambda pair: pair[0]))
    def test_serialize_roundtrip(self, contents):
        bucket = Bucket(4, 16)
        for address, leaf in contents:
            bucket.insert(block(address, leaf))
        restored = Bucket.deserialize(bucket.serialize(), 4, 16)
        original = {(item.address, item.leaf, item.data)
                    for item in bucket.blocks()}
        recovered = {(item.address, item.leaf, item.data)
                     for item in restored.blocks()}
        assert original == recovered

    def test_serialize_matches_the_byte_format(self):
        """Per slot: 8-byte tag, 8-byte leaf, payload, all little-endian;
        a dummy slot is DUMMY_TAG, leaf 0 and a zero payload."""
        bucket = Bucket(4, 16)
        bucket.slots = [None, block(2**40 + 3, 5, fill=0x11), None,
                        block(7, 2**20, fill=0x22)]
        dummy = DUMMY_TAG.to_bytes(8, "little") + \
            (0).to_bytes(8, "little") + bytes(16)
        expected = (dummy +
                    (2**40 + 3).to_bytes(8, "little") +
                    (5).to_bytes(8, "little") + b"\x11" * 16 +
                    dummy +
                    (7).to_bytes(8, "little") +
                    (2**20).to_bytes(8, "little") + b"\x22" * 16)
        assert bucket.serialize() == expected
        restored = Bucket.deserialize(expected, 4, 16)
        assert restored.slots == bucket.slots
        assert restored.serialize() == expected

    def test_deserialize_rejects_bad_length(self):
        with pytest.raises(ValueError):
            Bucket.deserialize(b"\x00" * 10, 4, 16)

    def test_dummy_tag_is_reserved(self):
        assert DUMMY_TAG == 2**64 - 1


class TestStash:
    def test_add_get_remove(self):
        stash = Stash(10)
        stash.add(block(5, 2))
        assert 5 in stash
        assert stash.get(5).leaf == 2
        removed = stash.remove(5)
        assert removed.address == 5
        assert 5 not in stash

    def test_same_address_replaces(self):
        stash = Stash(10)
        stash.add(block(5, 2))
        stash.add(block(5, 7))
        assert len(stash) == 1
        assert stash.get(5).leaf == 7

    def test_peak_tracking(self):
        stash = Stash(10)
        for index in range(6):
            stash.add(block(index, 0))
        for index in range(6):
            stash.remove(index)
        assert stash.peak_occupancy == 6

    def test_over_capacity_flag(self):
        stash = Stash(2)
        stash.add(block(0, 0))
        stash.add(block(1, 0))
        assert not stash.over_capacity
        stash.add(block(2, 0))
        assert stash.over_capacity


class TestEvictionPlanner:
    def test_blocks_go_as_deep_as_possible(self):
        tree = TreeGeometry(4)
        stash = Stash(50)
        stash.add(block(1, 5))
        placement = stash.plan_eviction(tree, 5, bucket_capacity=4)
        # a block mapped to the accessed leaf lands in the leaf bucket
        assert placement[3][0].address == 1
        assert len(stash) == 0

    def test_respects_bucket_capacity(self):
        tree = TreeGeometry(4)
        stash = Stash(50)
        for index in range(6):
            stash.add(block(index, 5))
        placement = stash.plan_eviction(tree, 5, bucket_capacity=4)
        assert len(placement[3]) == 4
        assert all(len(blocks) <= 4 for blocks in placement.values())

    def test_divergent_blocks_stay_high(self):
        tree = TreeGeometry(4)
        stash = Stash(50)
        stash.add(block(1, 0))  # leftmost leaf
        placement = stash.plan_eviction(tree, 7, bucket_capacity=4)
        # paths to leaves 0 and 7 share only the root
        assert placement == {0: placement[0]}
        assert placement[0][0].address == 1

    def test_unplaceable_blocks_remain(self):
        tree = TreeGeometry(4)
        stash = Stash(50)
        for index in range(5):
            stash.add(block(index, 0))
        stash.plan_eviction(tree, 7, bucket_capacity=4)
        # root holds 4; the fifth block stays in the stash
        assert len(stash) == 1

    @settings(max_examples=25)
    @given(st.integers(min_value=2, max_value=8), st.data())
    def test_placement_legality(self, levels, data):
        """Every placed block must sit on the intersection of its own path
        and the eviction path — the correctness condition of Path ORAM."""
        tree = TreeGeometry(levels)
        rng = DeterministicRng(1, "t")
        stash = Stash(1000)
        count = data.draw(st.integers(0, 30))
        for index in range(count):
            stash.add(block(index, rng.random_leaf(tree.leaf_count)))
        leaf = data.draw(st.integers(0, tree.leaf_count - 1))
        placement = stash.plan_eviction(tree, leaf, bucket_capacity=4)
        for level, blocks in placement.items():
            bucket = tree.path_bucket(leaf, level)
            for placed in blocks:
                assert tree.on_path(bucket, placed.leaf)

    @settings(max_examples=200)
    @given(st.integers(min_value=1, max_value=8), st.data())
    def test_placement_equals_per_level_loop(self, levels, data):
        """Placement and leftovers match the loop that recomputed each
        block's deepest common level at every level."""
        tree = TreeGeometry(levels)
        leaves = data.draw(st.lists(
            st.integers(0, tree.leaf_count - 1), max_size=30))
        leaf = data.draw(st.integers(0, tree.leaf_count - 1))
        capacity = data.draw(st.integers(1, 4))
        stash = Stash(1000)
        for index, block_leaf in enumerate(leaves):
            stash.add(block(index, block_leaf))
        expected = {}
        remaining = list(range(len(leaves)))
        for level in range(levels - 1, -1, -1):
            chosen = []
            for address in list(remaining):
                if (len(chosen) < capacity and tree.deepest_common_level(
                        leaves[address], leaf) >= level):
                    chosen.append(address)
                    remaining.remove(address)
            if chosen:
                expected[level] = chosen
        placement = stash.plan_eviction(tree, leaf, capacity)
        assert {level: [placed.address for placed in blocks]
                for level, blocks in placement.items()} == expected
        assert stash.addresses() == remaining


class TestPositionMap:
    def test_lookup_is_stable(self):
        posmap = PositionMap(64, DeterministicRng(1, "p"))
        first = posmap.lookup(10)
        assert posmap.lookup(10) == first

    def test_remap_changes_distributionally(self):
        posmap = PositionMap(1024, DeterministicRng(1, "p"))
        initial = posmap.lookup(10)
        changed = sum(posmap.remap(10) != initial for _ in range(50))
        assert changed > 40

    def test_lookup_and_remap_returns_old(self):
        posmap = PositionMap(64, DeterministicRng(1, "p"))
        original = posmap.lookup(3)
        old, new = posmap.lookup_and_remap(3)
        assert old == original
        assert posmap.lookup(3) == new

    def test_leaves_in_range(self):
        posmap = PositionMap(37, DeterministicRng(1, "p"))
        for address in range(200):
            assert 0 <= posmap.lookup(address) < 37

    def test_uniformity(self):
        posmap = PositionMap(4, DeterministicRng(1, "p"))
        counts = [0, 0, 0, 0]
        for address in range(4000):
            counts[posmap.lookup(address)] += 1
        assert max(counts) < 1.25 * min(counts)

    def test_set_validates(self):
        posmap = PositionMap(8, DeterministicRng(1, "p"))
        posmap.set(1, 7)
        assert posmap.lookup(1) == 7
        with pytest.raises(ValueError):
            posmap.set(1, 8)

    def test_touched_addresses(self):
        posmap = PositionMap(8, DeterministicRng(1, "p"))
        posmap.lookup(1)
        posmap.lookup(2)
        posmap.lookup(1)
        assert posmap.touched_addresses == 2
