"""The combined Independent + Split design (Figure 7e).

Four SDIMMs form two *groups*; the tree is partitioned across groups by
leaf MSBs (Independent semantics: parallel, APPEND broadcast, transfer
queues), and within each group every bucket is 2-way split (Split
semantics: halved per-access latency).  This is the configuration the paper
finds "the best balance in terms of latency and parallelism in every
benchmark" — INDEP-SPLIT, the headline 47.4% improvement.

Each group exposes the same access/append surface an Independent SDIMM
does; internally a group *is* a Split protocol instance over its subtree.
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
from repro.core.independent import AccessOutcome, PartitionedProtocol
from repro.core.split import SplitProtocol, _ShadowEntry
from repro.core.transfer_queue import TransferQueue
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.oram.bucket import Block
from repro.oram.path_oram import Op
from repro.utils.bitops import bit_slice, log2_exact
from repro.utils.rng import DeterministicRng


class SplitGroup:
    """One independent partition served by a split pair of SDIMMs."""

    def __init__(self, group_id: int, groups: int, global_levels: int,
                 ways: int, blocks_per_bucket: int, block_bytes: int,
                 stash_capacity: int, transfer_queue_capacity: int,
                 drain_probability: float, rng: DeterministicRng,
                 key: bytes, record_link: bool = False,
                 tracer: Tracer = NULL_TRACER):
        self.group_id = group_id
        self.groups = groups
        self._partition_bits = log2_exact(groups)
        local_levels = global_levels - self._partition_bits
        if local_levels < 1:
            raise ValueError("tree too shallow for this many groups")
        self.split = SplitProtocol(
            levels=local_levels,
            ways=ways,
            blocks_per_bucket=blocks_per_bucket,
            block_bytes=block_bytes,
            stash_capacity=stash_capacity,
            seed=rng.randint(0, 2**31),
            key=key + bytes([group_id]),
            record_link=record_link,
            tracer=tracer,
            trace_lane=f"group{group_id}",
        )
        self._local_leaf_bits = local_levels - 1
        self.global_leaf_count = self.split.geometry.leaf_count * groups
        self.queue = TransferQueue(transfer_queue_capacity,
                                   drain_probability,
                                   rng.child(f"group-queue{group_id}"))
        self._rng = rng.child(f"group{group_id}")
        self.accesses = 0

    # ------------------------------------------------------------------

    def owner_of(self, global_leaf: int) -> int:
        return global_leaf >> self._local_leaf_bits

    def _local(self, global_leaf: int) -> int:
        return global_leaf & ((1 << self._local_leaf_bits) - 1)

    # ------------------------------------------------------------------

    def access(self, address: int, old_global_leaf: int, op: Op,
               data: Optional[bytes]) -> AccessOutcome:
        """An Independent-style access executed split-wise in the group."""
        if self.owner_of(old_global_leaf) != self.group_id:
            raise ValueError(f"leaf {old_global_leaf} not owned by "
                             f"group {self.group_id}")
        self.accesses += 1
        split = self.split
        if address in self.queue:
            # The block is accessed while still in flight: pull it out of
            # the transfer queue straight into the split stashes.
            waiting = self.queue.remove(address)
            split.shadow.append(_ShadowEntry(address,
                                             self._local(old_global_leaf)))
            for buffer in split.buffers:
                buffer.stash.append(bit_slice(waiting.data, buffer.way,
                                              buffer.ways))
        split.posmap.set(address, self._local(old_global_leaf))

        new_global_leaf = self._rng.random_leaf(self.global_leaf_count)
        stays = self.owner_of(new_global_leaf) == self.group_id
        result = split.access(
            address, op, data,
            override_new_leaf=self._local(new_global_leaf) if stays else None,
            remove_after=not stays,
        )
        moved: Optional[Block] = None
        if not stays:
            payload = data if op is Op.WRITE else result
            moved = Block(address, new_global_leaf, payload)
            # A departure opens a stash vacancy; fill it from the queue.
            self._service_queue(via_drain=False)
        return AccessOutcome(result, new_global_leaf, moved)

    def _service_queue(self, via_drain: bool) -> None:
        serviced = self.queue.service(via_drain=via_drain)
        if serviced is None:
            return
        local_leaf = self._local(serviced.leaf)
        self.split.shadow.append(_ShadowEntry(serviced.address, local_leaf))
        self.split.posmap.set(serviced.address, local_leaf)
        for buffer in self.split.buffers:
            buffer.stash.append(bit_slice(serviced.data, buffer.way,
                                          buffer.ways))

    def append(self, block: Optional[Block]) -> int:
        """Absorb an APPEND; real blocks enter the split stashes sliced.

        A probabilistic drain spends one dummy split access, keeping queue
        utilization below 1 (Section IV-C).
        """
        if block is None:
            return 0
        drain_now = self.queue.push(block)
        if drain_now:
            self._service_queue(via_drain=True)
            self.split.dummy_access()
            return 1
        return 0

    def holds(self, address: int) -> bool:
        """Whether the block is anywhere in this group (tests/debugging)."""
        in_shadow = any(entry.address == address
                        for entry in self.split.shadow)
        return in_shadow or address in self.queue


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
                 record_link: bool = False,
                 tracer: Tracer = NULL_TRACER):
        rng = DeterministicRng(seed, self.label)
        self.groups: List[SplitGroup] = [
            SplitGroup(
                group_id=index,
                groups=groups,
                global_levels=global_levels,
                ways=ways,
                blocks_per_bucket=blocks_per_bucket,
                block_bytes=block_bytes,
                stash_capacity=stash_capacity,
                transfer_queue_capacity=transfer_queue_capacity,
                drain_probability=drain_probability,
                rng=rng,
                key=key,
                record_link=record_link,
                tracer=tracer,
            )
            for index in range(groups)
        ]
        super().__init__(self.groups, rng, seed, block_bytes, record_link,
                         tracer)

    # perfbench wraps each class's own ``access``
    access = PartitionedProtocol.access

    def wrap_stores(self, wrapper) -> None:
        """Replace each group's metadata reader with ``wrapper(gid, reader)``."""
        for gid, group in enumerate(self.groups):
            group.split.metadata_reader = wrapper(
                gid, group.split.metadata_reader)

    def _result_phase(self, owner: int) -> None:
        # The group returns the block unasked: no PROBE and no
        # FETCH_RESULT request cross the top-level link.
        start = self.clock.now
        self.link.down(SdimmCommand.FETCH_RESULT, owner, self.block_bytes)
        self._span("FETCH_RESULT", start)
