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
    (:meth:`PartitionedProtocol.access`).
2-4. the SDIMM performs the local path access and write-back
    (:meth:`PartitionSite.access`, serving through
    :meth:`IndependentBuffer._serve`).
5.  the CPU polls with PROBE and collects the block with FETCH_RESULT.
6.  the CPU APPENDs one block to *every* SDIMM; real only at the new owner
    (:meth:`PartitionSite.append`), feeding the transfer queue.

Steps 1, 5 and 6 are :class:`PartitionedProtocol`, and the migration
policy of steps 2-4 and 6 is :class:`PartitionSite`; INDEP-SPLIT
(:mod:`repro.core.indep_split`) shares both with a split group per site.
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


class PartitionSite:
    """One site of a partitioned tree and its migration policy (IV-C).

    The site owns the subtree its ``site_id`` names in the leaf MSBs and
    runs an ORAM *engine* over it.  Every access draws the block a fresh
    leaf uniformly over the global leaf space (Path ORAM's invariant); a
    leaf another site owns sends the block away, and its departure
    opens a vacancy that services one transfer-queue block.  APPENDed
    blocks wait in the queue, and each arrival's drain lottery may spend
    one dummy engine access to service one.

    A subclass builds the engine, the queue and the leaf RNG, and
    supplies four methods.  ``_serve(address, old_local, op, data,
    new_local)`` is the in-site access and returns the block's old data;
    ``new_local`` is None when the block departs, so it leaves the engine
    and the vacancy calls ``_service_queue(via_drain=False)`` wherever
    the engine's write-back allows.  ``_admit(block)`` puts a queued block
    (global leaf) into the engine's stash; ``holds`` and ``wrap_store``
    are the test and fault seams.
    """

    def __init__(self, site_id: int, sites: int, engine,
                 queue: TransferQueue, rng: DeterministicRng):
        self.site_id = site_id
        self.engine = engine
        local_leaf_count = engine.geometry.leaf_count
        self._local_leaf_bits = log2_exact(local_leaf_count)
        self.global_leaf_count = local_leaf_count * sites
        self.block_bytes = engine.block_bytes
        self.queue = queue
        self._rng = rng
        self.accesses = 0

    @staticmethod
    def local_levels(global_levels: int, sites: int) -> int:
        """Levels of each site's subtree under ``sites`` partitions."""
        levels = global_levels - log2_exact(sites)
        if levels < 1:
            raise ValueError("tree too shallow for this many sites")
        return levels

    def owner_of(self, global_leaf: int) -> int:
        return global_leaf >> self._local_leaf_bits

    def _local(self, global_leaf: int) -> int:
        return global_leaf & ((1 << self._local_leaf_bits) - 1)

    # ------------------------------------------------------------------

    def access(self, address: int, old_global_leaf: int, op: Op,
               data: Optional[bytes]) -> AccessOutcome:
        """Steps 2-4: serve in-site, remap, hand back a departing block."""
        if self.owner_of(old_global_leaf) != self.site_id:
            raise ValueError(f"leaf {old_global_leaf} not owned by "
                             f"site {self.site_id}")
        if op is Op.WRITE and (data is None or
                               len(data) != self.block_bytes):
            raise ValueError("write requires a full-size payload")
        self.accesses += 1
        new_global_leaf = self._rng.random_leaf(self.global_leaf_count)
        stays = self.owner_of(new_global_leaf) == self.site_id
        result = self._serve(address, self._local(old_global_leaf), op,
                             data,
                             self._local(new_global_leaf) if stays else None)
        moved = None if stays else Block(
            address, new_global_leaf, data if op is Op.WRITE else result)
        return AccessOutcome(result, new_global_leaf, moved)

    def _service_queue(self, via_drain: bool) -> None:
        """Admit the oldest queued block, if any (a vacancy or a drain)."""
        block = self.queue.service(via_drain=via_drain)
        if block is not None:
            self._admit(block)

    def append(self, block: Optional[Block]) -> int:
        """Step 6 receiver: absorb an APPEND (dummy blocks are dropped).

        Returns how many drain accesses (extra dummy accessORAMs) were
        spent; each one also moves a queued block into the stash.
        """
        if block is None or not self.queue.push(block):
            return 0
        self._service_queue(via_drain=True)
        self.engine.dummy_access()
        return 1


class IndependentBuffer(PartitionSite):
    """One SDIMM's secure buffer running the Independent backend."""

    def __init__(self, site_id: int, sites: int, global_levels: int,
                 blocks_per_bucket: int, block_bytes: int,
                 stash_capacity: int, transfer_queue_capacity: int,
                 drain_probability: float, rng: DeterministicRng,
                 encryption_key: Optional[bytes] = None,
                 tracer: Tracer = NULL_TRACER):
        local_levels = self.local_levels(global_levels, sites)
        store = None
        if encryption_key is not None:
            # The DRAM chips behind the secure buffer are untrusted: the
            # buffer encrypts and PMMACs every bucket it writes on-DIMM.
            from repro.oram.integrity import EncryptedBucketStore

            store = EncryptedBucketStore(
                bucket_count=(1 << local_levels) - 1,
                bucket_capacity=blocks_per_bucket,
                block_bytes=block_bytes,
                key=encryption_key + bytes([site_id]))
        self.oram = PathOram(
            levels=local_levels,
            blocks_per_bucket=blocks_per_bucket,
            block_bytes=block_bytes,
            stash_capacity=stash_capacity,
            rng=rng.child(f"sdimm{site_id}"),
            store=store,
            tracer=tracer,
            trace_lane=f"sdimm{site_id}",
        )
        queue = TransferQueue(transfer_queue_capacity, drain_probability,
                              rng.child(f"queue{site_id}"))
        super().__init__(site_id, sites, self.oram, queue, self.oram.rng)

    def _serve(self, address: int, old_local: int, op: Op,
               data: Optional[bytes], new_local: Optional[int]) -> bytes:
        oram = self.oram
        stash = oram.stash
        oram.read_path_into_stash(old_local)
        if address not in stash:
            if address in self.queue:
                self._admit(self.queue.remove(address))
            else:
                stash.add(Block(address, old_local, bytes(self.block_bytes)))
        block = stash.get(address)
        result = block.data
        if op is Op.WRITE:
            block.data = data
        if new_local is None:
            # the vacancy is filled before the write-back, which may then
            # evict the admitted block along this path
            stash.remove(address)
            self._service_queue(via_drain=False)
        else:
            block.leaf = new_local
        oram.write_path_from_stash(old_local)
        oram.relieve_pressure()
        return result

    def _admit(self, block: Block) -> None:
        self.oram.stash.add(Block(block.address, self._local(block.leaf),
                                  block.data))

    def holds(self, address: int) -> bool:
        """Whether the block waits in the stash or the queue (not the tree)."""
        return address in self.oram.stash or address in self.queue

    def wrap_store(self, wrapper) -> None:
        """Put the bucket store behind ``wrapper(site_id, store)``.

        Only meaningful when the buffer encrypts (a ``PlainBucketStore``
        has no adversarial surface); a plain store is wrapped all the
        same so retry accounting stays uniform.
        """
        self.oram.store = wrapper(self.site_id, self.oram.store)


class PartitionedProtocol:
    """CPU-side orchestration of a tree partitioned across sites.

    A *site* owns the subtree its index names in the leaf MSBs: a
    :class:`PartitionSite` — one SDIMM (:class:`IndependentProtocol`) or
    one split group (:class:`~repro.core.indep_split.IndepSplitProtocol`)
    — or anything else exposing ``owner_of``, ``global_leaf_count``,
    ``access`` (returning an :class:`AccessOutcome`), ``append`` and
    ``queue``.  One position map over the global leaf space remaps every
    block to a fresh leaf.

    A subclass builds its sites and passes them in, after drawing their
    RNG children and before the position map's, and supplies the result
    phase (:meth:`_result_phase`).  ``label`` names its RNG streams, its
    trace lane and its link lane.
    """

    label = ""

    def __init__(self, sites: List, rng: DeterministicRng, seed: int,
                 block_bytes: int, tracer: Tracer):
        self.sites = sites
        self.block_bytes = block_bytes
        self.tracer = tracer
        self.clock = StepClock()
        self._global_leaf_count = sites[0].global_leaf_count
        self.posmap = PositionMap(self._global_leaf_count,
                                  rng.child("posmap"))
        self.link = LinkRecorder(tracer=tracer, lane=f"{self.label}-link",
                                 clock=self.clock)
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
        # rejected before the link or any site sees the request
        if op is Op.WRITE and (data is None or
                               len(data) != self.block_bytes):
            raise ValueError("write requires a full-size payload")
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

    def wrap_stores(self, wrapper) -> None:
        """Put every site's store behind ``wrapper(site_id, store)``: the
        seam the fault campaigns' retry layer wraps."""
        for site in self.sites:
            site.wrap_store(wrapper)

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
                 encryption_key: Optional[bytes] = None,
                 tracer: Tracer = NULL_TRACER):
        rng = DeterministicRng(seed, self.label)
        self.sdimms: List[IndependentBuffer] = [
            IndependentBuffer(
                site_id=index, sites=sdimm_count, global_levels=global_levels,
                blocks_per_bucket=blocks_per_bucket, block_bytes=block_bytes,
                stash_capacity=stash_capacity,
                transfer_queue_capacity=transfer_queue_capacity,
                drain_probability=drain_probability, rng=rng,
                encryption_key=encryption_key, tracer=tracer)
            for index in range(sdimm_count)]
        super().__init__(self.sdimms, rng, seed, block_bytes, tracer)

    # perfbench wraps each class's own ``access``
    access = PartitionedProtocol.access

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
