"""The Independent ORAM protocol (Section III-C).

The ORAM tree is partitioned into one subtree per SDIMM by the most
significant bits of the leaf ID.  Each SDIMM runs a complete Path ORAM
backend over its subtree: the CPU sends an ``accessORAM`` to the owning
SDIMM, the SDIMM shuffles its path locally, and only the requested block —
plus one APPEND per SDIMM (all but one carrying dummies) to hide the
block's new home — crosses the main memory channel.

The six protocol steps map directly onto methods here:

1.  CPU front end picks the request, looks up the leaf, sends ACCESS (+ one
    always-present data block) to the owning SDIMM
    (:meth:`IndependentProtocol.access`).
2-4. the SDIMM performs the local path access and write-back
    (:meth:`IndependentBuffer.access`).
5.  the CPU polls with PROBE and collects the block with FETCH_RESULT.
6.  the CPU APPENDs one block to *every* SDIMM; real only at the new owner
    (:meth:`IndependentBuffer.append`), feeding the transfer queue.

Steps 1, 5 and 6 are :class:`PartitionedProtocol`, which INDEP-SPLIT
(:mod:`repro.core.indep_split`) shares with a split group per site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.commands import SdimmCommand
from repro.core.secure_buffer import LinkRecorder
from repro.core.transfer_queue import TransferQueue
from repro.obs.tracer import (
    CATEGORY_PROTOCOL,
    NULL_TRACER,
    StepClock,
    Tracer,
)
from repro.oram.bucket import Block
from repro.oram.path_oram import Op, PathOram
from repro.oram.posmap import PositionMap
from repro.utils.bitops import log2_exact
from repro.utils.rng import DeterministicRng


@dataclass
class AccessOutcome:
    """What one site's accessORAM produced."""

    data: bytes
    new_global_leaf: int
    moved_block: Optional[Block]   # set when the block left this site


class IndependentBuffer:
    """One SDIMM's secure buffer running the Independent backend."""

    def __init__(self, sdimm_id: int, total_sdimms: int, global_levels: int,
                 blocks_per_bucket: int, block_bytes: int,
                 stash_capacity: int, transfer_queue_capacity: int,
                 drain_probability: float, rng: DeterministicRng,
                 record_trace: bool = False,
                 encryption_key: Optional[bytes] = None):
        self.sdimm_id = sdimm_id
        self.total_sdimms = total_sdimms
        self._partition_bits = log2_exact(total_sdimms)
        local_levels = global_levels - self._partition_bits
        if local_levels < 1:
            raise ValueError("tree too shallow for this many SDIMMs")
        store = None
        if encryption_key is not None:
            # The DRAM chips behind the secure buffer are untrusted: the
            # buffer encrypts and PMMACs every bucket it writes on-DIMM.
            from repro.oram.integrity import EncryptedBucketStore

            store = EncryptedBucketStore(
                bucket_count=(1 << local_levels) - 1,
                bucket_capacity=blocks_per_bucket,
                block_bytes=block_bytes,
                key=encryption_key + bytes([sdimm_id]))
        self.oram = PathOram(
            levels=local_levels,
            blocks_per_bucket=blocks_per_bucket,
            block_bytes=block_bytes,
            stash_capacity=stash_capacity,
            rng=rng.child(f"sdimm{sdimm_id}"),
            store=store,
            record_trace=record_trace,
        )
        self._local_leaf_bits = local_levels - 1
        self.global_leaf_count = (self.oram.geometry.leaf_count *
                                  total_sdimms)
        self.queue = TransferQueue(transfer_queue_capacity,
                                   drain_probability,
                                   rng.child(f"queue{sdimm_id}"))
        self.accesses = 0

    # ------------------------------------------------------------------

    def owner_of(self, global_leaf: int) -> int:
        return global_leaf >> self._local_leaf_bits

    def _local(self, global_leaf: int) -> int:
        return global_leaf & ((1 << self._local_leaf_bits) - 1)

    # ------------------------------------------------------------------

    def access(self, address: int, old_global_leaf: int, op: Op,
               new_data: Optional[bytes]) -> AccessOutcome:
        """Steps 2-4: local path access, remap, conditional removal.

        The new leaf is drawn by the SDIMM over the *global* leaf space; if
        it maps to another SDIMM the block is removed from the local stash
        and handed back for migration.
        """
        if self.owner_of(old_global_leaf) != self.sdimm_id:
            raise ValueError(f"leaf {old_global_leaf} not owned by "
                             f"SDIMM {self.sdimm_id}")
        self.accesses += 1
        oram = self.oram
        old_local = self._local(old_global_leaf)
        oram.read_path_into_stash(old_local)

        if address in oram.stash:
            block = oram.stash.get(address)
        elif address in self.queue:
            block = self.queue.remove(address)
            block.leaf = self._local(block.leaf)
            oram.stash.add(block)
        else:
            block = Block(address, old_local, bytes(oram.block_bytes))
            oram.stash.add(block)

        result = block.data
        if op is Op.WRITE:
            if new_data is None or len(new_data) != oram.block_bytes:
                raise ValueError("write requires a full-size payload")
            block.data = new_data

        new_global_leaf = oram.rng.random_leaf(self.global_leaf_count)
        moved: Optional[Block] = None
        if self.owner_of(new_global_leaf) == self.sdimm_id:
            block.leaf = self._local(new_global_leaf)
        else:
            moved = oram.stash.remove(address)
            moved.leaf = new_global_leaf
            # Step 6's counterpart: a departure opens a stash vacancy that
            # services one waiting transfer-queue block for free.
            freed = self.queue.service(via_drain=False)
            if freed is not None:
                freed.leaf = self._local(freed.leaf)
                oram.stash.add(freed)

        oram.write_path_from_stash(old_local)
        oram.relieve_pressure()
        return AccessOutcome(result, new_global_leaf, moved)

    def append(self, block: Optional[Block]) -> int:
        """Step 6 receiver: absorb an APPEND (dummy blocks are dropped).

        Returns how many drain accesses (extra dummy accessORAMs) were
        spent; each one also moves a queued block into the stash.
        """
        if block is None:
            return 0
        local_block = Block(block.address, block.leaf, block.data)
        drain_now = self.queue.push(local_block)
        if not drain_now:
            return 0
        serviced = self.queue.service(via_drain=True)
        if serviced is not None:
            serviced.leaf = self._local(serviced.leaf)
            self.oram.stash.add(serviced)
        self.oram.dummy_access()
        return 1

    def holds(self, address: int) -> bool:
        """Whether the block is anywhere in this SDIMM (tests/debugging)."""
        return address in self.oram.stash or address in self.queue


class PartitionedProtocol:
    """CPU-side orchestration of a tree partitioned across sites.

    A *site* owns the subtree its index names in the leaf MSBs: one SDIMM
    (:class:`IndependentProtocol`) or one split group
    (:class:`~repro.core.indep_split.IndepSplitProtocol`).  A site exposes
    ``owner_of``, ``access`` (returning an :class:`AccessOutcome`),
    ``append`` and ``queue``.  One position map over the global leaf
    space remaps every block to a fresh leaf.

    A subclass builds its sites and passes them in, after drawing their
    RNG children and before the position map's.  It supplies the
    result phase (:meth:`_result_phase`) and its fault seam
    (``wrap_stores``).  ``label``
    names its RNG streams, its trace lane and its link lane.
    """

    label = ""

    def __init__(self, sites: List, rng: DeterministicRng, seed: int,
                 block_bytes: int, record_link: bool, tracer: Tracer):
        self.sites = sites
        self.block_bytes = block_bytes
        self.tracer = tracer
        self.clock = StepClock()
        self._global_leaf_count = sites[0].global_leaf_count
        self.posmap = PositionMap(self._global_leaf_count,
                                  rng.child("posmap"))
        self.link = LinkRecorder(enabled=record_link, tracer=tracer,
                                 lane=f"{self.label}-link", clock=self.clock)
        self.accesses = 0
        self._seed = seed
        #: Sites whose retry budget was exhausted: their accesses degrade
        #: to link-shape-preserving zero reads instead of crashing the run.
        self.quarantined: set = set()
        self._degraded_rng: Optional[DeterministicRng] = None
        self.degraded_accesses = 0
        self.lost_appends = 0

    # ------------------------------------------------------------------
    # Resilience seam (repro.faults)
    # ------------------------------------------------------------------

    def quarantine(self, site: int) -> None:
        """Mark a site failed: later accesses to it run degraded."""
        self.quarantined.add(site)

    def _degraded_outcome(self) -> AccessOutcome:
        """A quarantined owner's access: zeroes served, the block remapped
        without migration, every phase on the link as usual."""
        self.degraded_accesses += 1
        # Built lazily from the stored seed: DeterministicRng.child() draws
        # entropy from the parent stream, so creating this eagerly in the
        # constructor would perturb every existing stream and break
        # zero-fault byte-identity with pre-resilience runs.
        if self._degraded_rng is None:
            self._degraded_rng = DeterministicRng(self._seed,
                                                  f"{self.label}/degraded")
        new_leaf = self._degraded_rng.random_leaf(self._global_leaf_count)
        return AccessOutcome(bytes(self.block_bytes), new_leaf, None)

    # ------------------------------------------------------------------

    def _span(self, name: str, start: int) -> None:
        if self.tracer.enabled:
            self.tracer.span(name, CATEGORY_PROTOCOL, self.label, start,
                             max(start + 1, self.clock.now))

    def _result_phase(self, owner: int) -> None:
        """Step 5: the owner's result block crosses the link."""
        raise NotImplementedError

    def access(self, address: int, op: Op,
               data: Optional[bytes] = None) -> bytes:
        """One end-to-end request through the partitioned protocol."""
        if op is Op.WRITE and data is None:
            raise ValueError("write requires data")
        self.accesses += 1
        old_leaf = self.posmap.lookup(address)
        owner = self.sites[0].owner_of(old_leaf)

        # Step 1: ACCESS always carries one block (dummy for reads) so the
        # operation type is hidden.
        start = self.clock.now
        self.link.up(SdimmCommand.ACCESS, owner, self.block_bytes)
        if owner in self.quarantined:  # reprolint: disable=SEC003 -- owner is leaf-derived but a failed site is physically observable to any adversary; the degraded outcome leaves every link event unchanged, so this branch reveals nothing beyond the (public) failure itself
            outcome = self._degraded_outcome()
        else:
            outcome = self.sites[owner].access(address, old_leaf, op, data)
        self.posmap.set(address, outcome.new_global_leaf)
        self._span("ACCESS", start)

        self._result_phase(owner)

        # Step 6: one APPEND to every site; real block only at the new
        # owner (and only if the block actually migrated).
        start = self.clock.now
        new_owner = self.sites[0].owner_of(outcome.new_global_leaf)
        for index, site in enumerate(self.sites):
            payload = (outcome.moved_block
                       if index == new_owner and outcome.moved_block
                       else None)
            self.link.up(SdimmCommand.APPEND, index, self.block_bytes)
            if index in self.quarantined:
                # The wire still carries the APPEND (shape preserved); the
                # dead site just cannot absorb it.  A real migrated block
                # landing here is lost — recorded, not raised.
                if payload is not None:
                    self.lost_appends += 1
                continue
            site.append(payload)
        self._span("APPEND", start)
        return outcome.data

    def read(self, address: int) -> bytes:
        """Oblivious read of one block."""
        return self.access(address, Op.READ)

    def write(self, address: int, data: bytes) -> None:
        """Oblivious write of one block."""
        self.access(address, Op.WRITE, data)

    # ------------------------------------------------------------------

    def locate(self, address: int) -> int:
        """Which site currently owns the block (tests/debugging)."""
        return self.sites[0].owner_of(self.posmap.lookup(address))

    @property
    def total_drain_accesses(self) -> int:
        return sum(site.queue.drain_services for site in self.sites)


class IndependentProtocol(PartitionedProtocol):
    """CPU-side orchestration of the Independent design."""

    label = "independent"

    def __init__(self, global_levels: int, sdimm_count: int,
                 blocks_per_bucket: int = 4, block_bytes: int = 64,
                 stash_capacity: int = 200,
                 transfer_queue_capacity: int = 128,
                 drain_probability: float = 0.05,
                 seed: int = 2018,
                 record_link: bool = False,
                 record_trace: bool = False,
                 encryption_key: Optional[bytes] = None,
                 tracer: Tracer = NULL_TRACER):
        rng = DeterministicRng(seed, self.label)
        self.sdimms: List[IndependentBuffer] = [
            IndependentBuffer(
                sdimm_id=index,
                total_sdimms=sdimm_count,
                global_levels=global_levels,
                blocks_per_bucket=blocks_per_bucket,
                block_bytes=block_bytes,
                stash_capacity=stash_capacity,
                transfer_queue_capacity=transfer_queue_capacity,
                drain_probability=drain_probability,
                rng=rng,
                record_trace=record_trace,
                encryption_key=encryption_key,
            )
            for index in range(sdimm_count)
        ]
        super().__init__(self.sdimms, rng, seed, block_bytes, record_link,
                         tracer)

    # perfbench wraps each class's own ``access``
    access = PartitionedProtocol.access

    def wrap_stores(self, wrapper) -> None:
        """Replace each SDIMM's bucket store with ``wrapper(sdimm_id, store)``.

        Only meaningful when the buffers encrypt (a ``PlainBucketStore``
        has no adversarial surface); plain stores are wrapped all the same
        so retry accounting stays uniform.
        """
        for index, sdimm in enumerate(self.sdimms):
            sdimm.oram.store = wrapper(index, sdimm.oram.store)

    def _result_phase(self, owner: int) -> None:
        # PROBE until ready, then FETCH_RESULT.  The SDIMM always returns
        # one block (dummy only for a local-stay write).
        start = self.clock.now
        self.link.up(SdimmCommand.PROBE, owner, 0)
        self._span("PROBE", start)
        start = self.clock.now
        self.link.up(SdimmCommand.FETCH_RESULT, owner, 0)
        self.link.down(SdimmCommand.FETCH_RESULT, owner, self.block_bytes)
        self._span("FETCH_RESULT", start)
