"""Block and bucket records for the functional ORAM tier.

Each tree node (bucket) holds ``Z`` block slots, some of which may be dummy
(empty), plus metadata: per-slot address tags and leaf IDs, and one shared
write counter used for counter-mode encryption and PMMAC.  The Split
protocol serializes buckets to bytes and slices them; the serialization
format here is therefore explicit and byte-exact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional

#: Tag value marking an empty (dummy) slot in serialized form.
DUMMY_TAG = (1 << 64) - 1

#: One slot's header in serialized form: 8-byte tag, 8-byte leaf.
_SLOT_HEADER = struct.Struct("<QQ")

#: A dummy slot's header: DUMMY_TAG and leaf 0.
_EMPTY_HEADER = _SLOT_HEADER.pack(DUMMY_TAG, 0)


@dataclass
class Block:
    """One real data block: its logical address, current leaf, and payload."""

    address: int
    leaf: int
    data: bytes

    def copy(self) -> "Block":
        return Block(self.address, self.leaf, self.data)


class Bucket:
    """A tree node: ``Z`` optional blocks plus a shared write counter."""

    def __init__(self, capacity: int, block_bytes: int):
        self.capacity = capacity
        self.block_bytes = block_bytes
        self.slots: List[Optional[Block]] = [None] * capacity
        self.counter = 0

    @property
    def occupancy(self) -> int:
        return sum(1 for slot in self.slots if slot is not None)

    @property
    def is_full(self) -> bool:
        return self.occupancy == self.capacity

    def blocks(self) -> List[Block]:
        return [slot for slot in self.slots if slot is not None]

    def copy(self) -> "Bucket":
        """Deep copy: slot blocks are copied so callers cannot alias state."""
        duplicate = Bucket(self.capacity, self.block_bytes)
        duplicate.slots = [slot.copy() if slot is not None else None
                           for slot in self.slots]
        duplicate.counter = self.counter
        return duplicate

    def insert(self, block: Block) -> None:
        """Place a block in the first free slot.

        Raises:
            OverflowError: if the bucket is full.
        """
        if len(block.data) != self.block_bytes:
            raise ValueError(
                f"block payload is {len(block.data)} bytes, "
                f"bucket expects {self.block_bytes}")
        for index, slot in enumerate(self.slots):
            if slot is None:
                self.slots[index] = block
                return
        raise OverflowError("bucket is full")

    def clear(self) -> List[Block]:
        """Remove and return all real blocks."""
        removed = self.blocks()
        self.slots = [None] * self.capacity
        return removed

    # ------------------------------------------------------------------
    # Serialization (used by the crypto layer and the Split protocol)
    # ------------------------------------------------------------------

    _HEADER_BYTES_PER_SLOT = 16  # 8-byte tag + 8-byte leaf

    @property
    def serialized_bytes(self) -> int:
        return self.capacity * (self._HEADER_BYTES_PER_SLOT + self.block_bytes)

    def serialize(self) -> bytes:
        """Flatten the bucket to bytes: per-slot (tag, leaf, payload).

        Dummy slots serialize as DUMMY_TAG with a zero payload, so the
        serialized size is constant — a requirement for indistinguishable
        ciphertexts.
        """
        pack = _SLOT_HEADER.pack
        empty = None
        parts = []
        for slot in self.slots:
            if slot is None:
                if empty is None:
                    empty = _EMPTY_HEADER + bytes(self.block_bytes)
                parts.append(empty)
            else:
                parts.append(pack(slot.address, slot.leaf))
                parts.append(slot.data)
        return b"".join(parts)

    @classmethod
    def deserialize(cls, raw: bytes, capacity: int,
                    block_bytes: int) -> "Bucket":
        stride = cls._HEADER_BYTES_PER_SLOT + block_bytes
        if len(raw) != capacity * stride:
            raise ValueError(f"serialized bucket has {len(raw)} bytes, "
                             f"expected {capacity * stride}")
        bucket = cls(capacity, block_bytes)
        slots = bucket.slots
        unpack_from = _SLOT_HEADER.unpack_from
        for index in range(capacity):
            offset = index * stride
            tag, leaf = unpack_from(raw, offset)
            if tag != DUMMY_TAG:
                slots[index] = Block(tag, leaf,
                                     raw[offset + 16:offset + stride])
        return bucket
