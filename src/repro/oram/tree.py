"""Binary-tree geometry for Path ORAM.

Buckets are numbered in heap order: the root is bucket 0 and the children
of bucket ``b`` are ``2b + 1`` and ``2b + 2``.  Leaves are numbered 0 to
``leaf_count - 1`` left to right.  All protocols (baseline, Independent,
Split) share this geometry; the Independent protocol additionally partitions
the tree into per-SDIMM subtrees selected by the most significant bits of
the leaf ID.
"""

from __future__ import annotations

from typing import List

from repro.utils.bitops import log2_exact


class TreeGeometry:
    """Index arithmetic for a Path ORAM tree of ``levels`` levels."""

    def __init__(self, levels: int):
        if levels < 1:
            raise ValueError("tree needs at least one level")
        self.levels = levels
        self.leaf_count = 1 << (levels - 1)
        self.bucket_count = (1 << levels) - 1

    def level_of(self, bucket: int) -> int:
        """Tree level of a bucket (root is level 0)."""
        self._check_bucket(bucket)
        return (bucket + 1).bit_length() - 1

    def bucket_at(self, level: int, position: int) -> int:
        """Bucket index for the ``position``-th node of ``level``."""
        if not 0 <= level < self.levels:
            raise ValueError(f"level {level} out of range")
        if not 0 <= position < (1 << level):
            raise ValueError(f"position {position} out of range at level {level}")
        return (1 << level) - 1 + position

    def position_of(self, bucket: int) -> int:
        """Position of a bucket within its level (0 = leftmost)."""
        return bucket - ((1 << self.level_of(bucket)) - 1)

    def path(self, leaf: int) -> List[int]:
        """Bucket indices from the root down to ``leaf``'s leaf bucket."""
        self.check_leaf(leaf)
        top = self.levels - 1
        return [(1 << level) - 1 + (leaf >> (top - level))
                for level in range(self.levels)]

    def path_bucket(self, leaf: int, level: int) -> int:
        """The single bucket of ``leaf``'s path at ``level``."""
        self.check_leaf(leaf)
        return self.bucket_at(level, leaf >> (self.levels - 1 - level))

    def on_path(self, bucket: int, leaf: int) -> bool:
        """Whether ``bucket`` lies on the root-to-``leaf`` path."""
        level = self.level_of(bucket)
        return self.path_bucket(leaf, level) == bucket

    def deepest_common_level(self, leaf_a: int, leaf_b: int) -> int:
        """Deepest level shared by the paths to two leaves.

        This is the deepest level at which a block mapped to ``leaf_a`` may
        be stored when evicting along the path to ``leaf_b`` — the heart of
        the greedy Path ORAM write-back.
        """
        self.check_leaf(leaf_a)
        self.check_leaf(leaf_b)
        differing = leaf_a ^ leaf_b
        if differing == 0:
            return self.levels - 1
        return self.levels - 1 - differing.bit_length()

    def subtree_of_leaf(self, leaf: int, partitions: int) -> int:
        """Which of ``partitions`` leaf-MSB subtrees owns ``leaf``.

        The Independent protocol partitions "based on the most significant
        bits of the leaf ID"; with ``partitions`` SDIMMs, SDIMM *i* owns
        leaves ``[i * leaf_count/partitions, (i+1) * leaf_count/partitions)``.
        """
        self.check_leaf(leaf)
        bits = log2_exact(partitions)
        return leaf >> (self.levels - 1 - bits)

    def subtree_levels(self, partitions: int) -> int:
        """Levels inside each partition's subtree (shared top excluded)."""
        return self.levels - log2_exact(partitions)

    def leaves_under(self, bucket: int) -> range:
        """The leaf IDs whose paths pass through ``bucket``."""
        level = self.level_of(bucket)
        span = 1 << (self.levels - 1 - level)
        start = self.position_of(bucket) * span
        return range(start, start + span)

    def parent(self, bucket: int) -> int:
        self._check_bucket(bucket)
        if bucket == 0:
            raise ValueError("root has no parent")
        return (bucket - 1) // 2

    def children(self, bucket: int) -> List[int]:
        self._check_bucket(bucket)
        left = 2 * bucket + 1
        if left >= self.bucket_count:
            return []
        return [left, left + 1]

    def _check_bucket(self, bucket: int) -> None:
        if not 0 <= bucket < self.bucket_count:
            raise ValueError(f"bucket {bucket} out of range "
                             f"(tree has {self.bucket_count})")

    def check_leaf(self, leaf: int) -> None:
        """Raise ValueError unless ``leaf`` names a leaf of this tree."""
        if not 0 <= leaf < self.leaf_count:
            raise ValueError(f"leaf {leaf} out of range "
                             f"(tree has {self.leaf_count})")
