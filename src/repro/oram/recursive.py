"""Recursive Path ORAM: the position map stored in smaller ORAMs.

ORAM_0 holds data; ORAM_k (k >= 1) holds the position map of ORAM_{k-1},
packing ``entries_per_block`` leaf IDs per block.  Recursion stops when the
top position map fits on chip.  Every data access walks the chain top-down:
the on-chip map yields the top PosMap block's leaf, each PosMap access
reads the child's current leaf and installs a fresh one (a read-modify-write
inside a single path access), and the final access serves the data block.

This module carries *real* content through the recursion — it is the
correctness proof for the scheme.  The Freecursive front end
(:mod:`repro.oram.plb`) then shortcuts this chain with the PLB.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.oram.path_oram import Op, PathOram
from repro.utils.bitops import ceil_log2, log2_exact
from repro.utils.rng import DeterministicRng

#: A 4-byte entry of all ones marks "leaf not yet assigned".
UNSET_ENTRY = 0xFFFFFFFF
ENTRY_BYTES = 4


def _read_entry(payload: bytes, slot: int) -> int:
    offset = slot * ENTRY_BYTES
    return int.from_bytes(payload[offset:offset + ENTRY_BYTES], "little")


def _write_entry(payload: bytes, slot: int, value: int) -> bytes:
    offset = slot * ENTRY_BYTES
    return (payload[:offset] + value.to_bytes(ENTRY_BYTES, "little") +
            payload[offset + ENTRY_BYTES:])


class RecursiveOram:
    """A full recursive Path ORAM hierarchy with on-chip top map."""

    def __init__(self, data_blocks: int, block_bytes: int,
                 blocks_per_bucket: int, stash_capacity: int,
                 rng: DeterministicRng,
                 entries_per_block: int = 16,
                 max_posmap_levels: int = 5,
                 onchip_entries: int = 64,
                 record_trace: bool = False,
                 encryption_key: Optional[bytes] = None):
        if data_blocks < 1:
            raise ValueError("need at least one data block")
        if entries_per_block * ENTRY_BYTES > block_bytes:
            raise ValueError("entries do not fit in a block")
        self.entries_per_block = entries_per_block
        self._entry_shift = log2_exact(entries_per_block)
        self.rng = rng
        self.orams: List[PathOram] = []

        block_count = data_blocks
        level = 0
        while True:
            levels = max(2, ceil_log2(max(2, block_count)) + 1)
            fill = 0 if level == 0 else 0xFF
            store = None
            if encryption_key is not None:
                # every level's tree sits in untrusted memory: encrypt and
                # PMMAC each, under level-separated keys
                from repro.oram.integrity import EncryptedBucketStore

                store = EncryptedBucketStore(
                    bucket_count=(1 << levels) - 1,
                    bucket_capacity=blocks_per_bucket,
                    block_bytes=block_bytes,
                    key=encryption_key + bytes([level]))
            self.orams.append(PathOram(
                levels=levels,
                blocks_per_bucket=blocks_per_bucket,
                block_bytes=block_bytes,
                stash_capacity=stash_capacity,
                rng=rng.child(f"oram{level}"),
                store=store,
                record_trace=record_trace,
                new_block_fill=fill,
            ))
            # The on-chip map holds one leaf per block of the top ORAM;
            # recurse until that fits (or the level budget runs out).
            if block_count <= onchip_entries or level == max_posmap_levels:
                break
            block_count = -(-block_count // entries_per_block)
            level += 1

        self._onchip: Dict[int, int] = {}
        self._onchip_rng = rng.child("onchip")
        self.data_accesses = 0

    @property
    def posmap_levels(self) -> int:
        """Number of PosMap ORAMs stored in memory (the paper's n)."""
        return len(self.orams) - 1

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    def read(self, address: int) -> bytes:
        """Read one data block through the full PosMap recursion."""
        return self._access(address, Op.READ, None)

    def write(self, address: int, data: bytes) -> None:
        """Write one data block through the full PosMap recursion."""
        self._access(address, Op.WRITE, data)

    @property
    def total_path_accesses(self) -> int:
        return sum(oram.access_count for oram in self.orams)

    # ------------------------------------------------------------------
    # The recursive chain
    # ------------------------------------------------------------------

    def _chain_addresses(self, address: int) -> List[int]:
        """Block address at each ORAM level: p_0 = address, p_k = p_{k-1}/E."""
        chain = [address]
        for _ in range(self.posmap_levels):
            chain.append(chain[-1] >> self._entry_shift)
        return chain

    def _onchip_lookup_and_remap(self, top_block: int) -> tuple:
        top = self.orams[-1]
        old_leaf = self._onchip.get(top_block)
        if old_leaf is None:
            old_leaf = self._onchip_rng.random_leaf(top.geometry.leaf_count)
        new_leaf = self._onchip_rng.random_leaf(top.geometry.leaf_count)
        self._onchip[top_block] = new_leaf
        return old_leaf, new_leaf

    def _access(self, address: int, op: Op, data: Optional[bytes]) -> bytes:
        self.data_accesses += 1
        chain = self._chain_addresses(address)
        top_level = self.posmap_levels
        old_leaf, new_leaf = self._onchip_lookup_and_remap(chain[top_level])

        # Walk PosMap ORAMs top-down.  At level k we access block chain[k],
        # whose payload holds the current leaf of chain[k-1]; we read it and
        # install a fresh leaf in the same path access.
        for level in range(top_level, 0, -1):
            oram = self.orams[level]
            child_oram = self.orams[level - 1]
            slot = chain[level - 1] & (self.entries_per_block - 1)
            child_new_leaf = self.rng.random_leaf(
                child_oram.geometry.leaf_count)
            child_old_leaf_holder = []

            def update_entry(payload: bytes, slot=slot,
                             child_oram=child_oram,
                             child_new_leaf=child_new_leaf,
                             holder=child_old_leaf_holder) -> bytes:
                entry = _read_entry(payload, slot)
                if entry == UNSET_ENTRY:
                    entry = child_oram.rng.random_leaf(
                        child_oram.geometry.leaf_count)
                holder.append(entry)
                return _write_entry(payload, slot, child_new_leaf)

            oram.access_with_leaves(chain[level], old_leaf, new_leaf,
                                    Op.WRITE, transform=update_entry)
            old_leaf = child_old_leaf_holder[0]
            new_leaf = child_new_leaf

        return self.orams[0].access_with_leaves(address, old_leaf, new_leaf,
                                                op, data)
