"""Functional Path ORAM (Stefanov et al.), the paper's base construction.

Implements the four-step ``accessORAM(a, op, d')`` interface of Section
II-C: position-map lookup-and-remap, path read into the stash, block
service, and greedy path write-back.  Every access — real or dummy — reads
and writes exactly one full path, which is what makes the observable bucket
trace independent of the program's addresses and operations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.oram.bucket import Block, Bucket
from repro.oram.posmap import PositionMap
from repro.oram.stash import Stash
from repro.oram.tree import TreeGeometry
from repro.utils.rng import DeterministicRng


class StashOverflowError(Exception):
    """Raised when the stash exceeds capacity and eviction cannot drain it.

    Carries ``occupancy`` / ``capacity`` so failure records
    (:mod:`repro.faults`) can report how far over budget the stash was.
    """

    def __init__(self, message: str, occupancy: int = 0, capacity: int = 0):
        super().__init__(message)
        self.occupancy = occupancy
        self.capacity = capacity


class Op(enum.Enum):
    """Operation kinds accepted by accessORAM."""

    READ = "read"
    WRITE = "write"
    DUMMY = "dummy"


@dataclass(frozen=True)
class TraceEvent:
    """One bucket touch visible to a physical-bus adversary."""

    kind: str       # "read" or "write"
    bucket: int


class PathOram:
    """A single Path ORAM tree with stash, posmap, and observable trace."""

    def __init__(self, levels: int, blocks_per_bucket: int, block_bytes: int,
                 stash_capacity: int, rng: DeterministicRng,
                 store=None, record_trace: bool = False,
                 background_eviction: bool = True,
                 new_block_fill: int = 0,
                 tracer=None, trace_lane: str = "stash"):
        from repro.obs.tracer import NULL_TRACER
        from repro.oram.integrity import PlainBucketStore

        self.new_block_fill = new_block_fill
        self.geometry = TreeGeometry(levels)
        self.blocks_per_bucket = blocks_per_bucket
        self.block_bytes = block_bytes
        self.rng = rng
        self.posmap = PositionMap(self.geometry.leaf_count, rng.child("posmap"))
        self.stash = Stash(stash_capacity,
                           tracer=tracer if tracer is not None
                           else NULL_TRACER,
                           lane=trace_lane)
        self.store = store if store is not None else PlainBucketStore(
            self.geometry.bucket_count, blocks_per_bucket, block_bytes)
        self.record_trace = record_trace
        self.trace: List[TraceEvent] = []
        self.background_eviction = background_eviction
        self.access_count = 0
        self.dummy_access_count = 0
        self.background_evictions = 0

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    def access(self, address: int, op: Op,
               new_data: Optional[bytes] = None) -> bytes:
        """The accessORAM(a, op, d') interface.

        Returns the block's data before a write, or its current data for a
        read.  A block never written reads as zeroes.
        """
        if op is Op.DUMMY:
            return self.dummy_access()
        if op is Op.WRITE and new_data is None:
            raise ValueError("write requires new_data")
        if op is Op.WRITE and len(new_data) != self.block_bytes:
            raise ValueError(f"block must be {self.block_bytes} bytes")
        old_leaf, new_leaf = self.posmap.lookup_and_remap(address)
        return self._access_leaves(address, old_leaf, new_leaf, op, new_data)

    def access_with_leaves(self, address: int, old_leaf: int, new_leaf: int,
                           op: Op, new_data: Optional[bytes] = None,
                           transform=None) -> bytes:
        """accessORAM with externally managed position state.

        The recursive construction stores this ORAM's position map in the
        next ORAM up, so the caller supplies both leaves.  ``transform``
        enables the read-modify-write a PosMap block update needs: it
        receives the old payload and returns the new one, all within one
        path access.
        """
        return self._access_leaves(address, old_leaf, new_leaf, op, new_data,
                                   transform)

    def dummy_access(self) -> bytes:
        """A structurally identical access that serves no block.

        Used for background eviction and the Independent protocol's
        transfer-queue drain: reads a uniformly random path and writes it
        back, indistinguishable on the bus from a real access.
        """
        leaf = self.rng.random_leaf(self.geometry.leaf_count)
        self.dummy_access_count += 1
        self.access_count += 1
        self._read_path(leaf)
        self._write_path(leaf)
        self._handle_pressure()
        return bytes(self.block_bytes)

    def read_path_into_stash(self, leaf: int) -> None:
        """Public path-read primitive for protocol controllers (SDIMMs)."""
        self._read_path(leaf)

    def write_path_from_stash(self, leaf: int) -> None:
        """Public path write-back primitive for protocol controllers."""
        self._write_path(leaf)

    def relieve_pressure(self) -> None:
        """Run background eviction if the stash is over capacity."""
        self._handle_pressure()

    # ------------------------------------------------------------------
    # The four accessORAM steps
    # ------------------------------------------------------------------

    def _access_leaves(self, address: int, old_leaf: int, new_leaf: int,
                       op: Op, new_data: Optional[bytes],
                       transform=None) -> bytes:
        self.access_count += 1
        # Step 2: fetch the whole path into the stash.
        self._read_path(old_leaf)
        # Step 3: serve the block and move it to its new leaf.
        if address in self.stash:
            block = self.stash.get(address)
        else:
            fill = bytes([self.new_block_fill]) * self.block_bytes
            block = Block(address, old_leaf, fill)
            self.stash.add(block)
        result = block.data
        if transform is not None:
            block.data = transform(result)
            if len(block.data) != self.block_bytes:
                raise ValueError("transform changed the block size")
        elif op is Op.WRITE:
            block.data = new_data
        block.leaf = new_leaf
        # Step 4: write back as much of the stash as fits on the old path.
        self._write_path(old_leaf)
        self._handle_pressure()
        return result

    def _read_path(self, leaf: int) -> None:
        # The store hands over each bucket outright: its blocks move to
        # the stash without emptying the bucket first.
        read = self.store.read
        add = self.stash.add
        for bucket_index in self.geometry.path(leaf):
            for block in read(bucket_index).slots:
                if block is not None:
                    add(block)
            if self.record_trace:
                self.trace.append(TraceEvent("read", bucket_index))

    def _write_path(self, leaf: int) -> None:
        capacity = self.blocks_per_bucket
        placement = self.stash.plan_eviction(self.geometry, leaf, capacity)
        write = self.store.write
        for level, bucket_index in enumerate(self.geometry.path(leaf)):
            bucket = Bucket(capacity, self.block_bytes)
            chosen = placement.get(level)
            if chosen:
                bucket.slots[:len(chosen)] = chosen
            write(bucket_index, bucket)
            if self.record_trace:
                self.trace.append(TraceEvent("write", bucket_index))

    def _handle_pressure(self) -> None:
        if not self.stash.over_capacity:
            return
        if not self.background_eviction:
            raise StashOverflowError(
                f"stash holds {len(self.stash)} blocks, "
                f"capacity {self.stash.capacity}",
                occupancy=len(self.stash), capacity=self.stash.capacity)
        # Background eviction [Ren et al.]: dummy accesses drain the stash.
        attempts = 0
        while self.stash.over_capacity:
            attempts += 1
            if attempts > 64:
                raise StashOverflowError(
                    "background eviction failed to drain the stash",
                    occupancy=len(self.stash),
                    capacity=self.stash.capacity)
            self.background_evictions += 1
            leaf = self.rng.random_leaf(self.geometry.leaf_count)
            self._read_path(leaf)
            self._write_path(leaf)

    # ------------------------------------------------------------------
    # Introspection for tests and examples
    # ------------------------------------------------------------------

    def invariant_block_on_path_or_stash(self, address: int) -> bool:
        """The core ORAM invariant: a block is in the stash or on its path."""
        if address in self.stash:
            return True
        leaf = self.posmap.lookup(address)
        return any(block.address == address
                   for bucket_index in self.geometry.path(leaf)
                   for block in self.store.read(bucket_index).blocks())
