"""The combined Independent + Split design (Figure 7e).

Four SDIMMs form two *groups*; the tree is partitioned across groups by
leaf MSBs (Independent semantics: parallel, APPEND broadcast, transfer
queues), and within each group every bucket is 2-way split (Split
semantics: halved per-access latency).  This is the configuration the paper
finds "the best balance in terms of latency and parallelism in every
benchmark" — INDEP-SPLIT, the headline 47.4% improvement.

Each group is a :class:`~repro.core.independent.PartitionSite`, like an
Independent SDIMM, whose engine is a Split protocol over its subtree.
The CPU side is :class:`~repro.core.independent.PartitionedProtocol`, so
blocks migrate between groups through the CPU exactly as in the
Independent protocol: the arriving block's slices are appended to both
member buffers' stashes plus the group's shadow, paced by a transfer queue
whose probabilistic drain triggers a dummy split access.  Only the result
phase differs: the group returns the block without a PROBE or a
FETCH_RESULT request on the top-level link.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.commands import SdimmCommand
from repro.core.independent import PartitionedProtocol, PartitionSite
from repro.core.split import SplitProtocol, _ShadowEntry
from repro.core.transfer_queue import TransferQueue
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.oram.bucket import Block
from repro.oram.path_oram import Op
from repro.utils.bitops import bit_slice
from repro.utils.rng import DeterministicRng


class SplitGroup(PartitionSite):
    """One independent partition served by a split pair of SDIMMs."""

    def __init__(self, site_id: int, sites: int, global_levels: int,
                 ways: int, blocks_per_bucket: int, block_bytes: int,
                 stash_capacity: int, transfer_queue_capacity: int,
                 drain_probability: float, rng: DeterministicRng,
                 key: bytes, tracer: Tracer = NULL_TRACER):
        self.split = SplitProtocol(
            levels=self.local_levels(global_levels, sites),
            ways=ways,
            blocks_per_bucket=blocks_per_bucket,
            block_bytes=block_bytes,
            stash_capacity=stash_capacity,
            seed=rng.randint(0, 2**31),
            key=key + bytes([site_id]),
            tracer=tracer,
            trace_lane=f"group{site_id}",
        )
        queue = TransferQueue(transfer_queue_capacity, drain_probability,
                              rng.child(f"group-queue{site_id}"))
        super().__init__(site_id, sites, self.split, queue,
                         rng.child(f"group{site_id}"))

    def _serve(self, address: int, old_local: int, op: Op,
               data: Optional[bytes], new_local: Optional[int]) -> bytes:
        if address in self.queue:
            # The block is accessed while still in flight: pull it out of
            # the transfer queue straight into the split stashes.
            self._admit(self.queue.remove(address))
        self.split.posmap.set(address, old_local)
        result = self.split.access(address, op, data,
                                   override_new_leaf=new_local,
                                   remove_after=new_local is None)
        if new_local is None:
            # the vacancy is filled after the write-back dropped the block
            self._service_queue(via_drain=False)
        return result

    def _admit(self, block: Block) -> None:
        """The block's slices join every member stash, plus a shadow entry."""
        local_leaf = self._local(block.leaf)
        self.split.shadow.append(_ShadowEntry(block.address, local_leaf))
        self.split.posmap.set(block.address, local_leaf)
        for buffer in self.split.buffers:
            buffer.stash.append(bit_slice(block.data, buffer.way,
                                          buffer.ways))

    def holds(self, address: int) -> bool:
        """Whether the block waits in the shadow or queue (not the tree)."""
        in_shadow = any(entry.address == address
                        for entry in self.split.shadow)
        return in_shadow or address in self.queue

    def wrap_store(self, wrapper) -> None:
        """Put the metadata reader behind ``wrapper(site_id, reader)``."""
        self.split.metadata_reader = wrapper(self.site_id,
                                             self.split.metadata_reader)


class IndepSplitProtocol(PartitionedProtocol):
    """CPU-side orchestration of the combined design."""

    label = "indep-split"

    def __init__(self, global_levels: int, groups: int = 2, ways: int = 2,
                 blocks_per_bucket: int = 4, block_bytes: int = 64,
                 stash_capacity: int = 200,
                 transfer_queue_capacity: int = 128,
                 drain_probability: float = 0.05,
                 seed: int = 2018,
                 key: bytes = b"indep-split-key!",
                 tracer: Tracer = NULL_TRACER):
        rng = DeterministicRng(seed, self.label)
        self.groups: List[SplitGroup] = [
            SplitGroup(
                site_id=index, sites=groups, global_levels=global_levels,
                ways=ways, blocks_per_bucket=blocks_per_bucket,
                block_bytes=block_bytes, stash_capacity=stash_capacity,
                transfer_queue_capacity=transfer_queue_capacity,
                drain_probability=drain_probability, rng=rng, key=key,
                tracer=tracer)
            for index in range(groups)]
        super().__init__(self.groups, rng, seed, block_bytes, tracer)

    # perfbench wraps each class's own ``access``
    access = PartitionedProtocol.access

    def _result_phase(self, owner: int) -> None:
        # The group returns the block unasked: no PROBE and no
        # FETCH_RESULT request cross the top-level link.
        start = self.clock.now
        self.link.down(SdimmCommand.FETCH_RESULT, owner, self.block_bytes)
        self._span("FETCH_RESULT", start)
