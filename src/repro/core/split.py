"""The Split ORAM protocol (Section III-D).

Every bucket of one logical tree is bit-sliced across N SDIMMs: each SDIMM
stores 1/N of every data block, 1/N of every tag and leaf ID, 1/N of the
shared write counter, and its *own* MAC over its own slice (the N-fold MAC
overhead the paper accepts).  One access proceeds as:

1. FETCH_DATA — each SDIMM pulls its data slices of the whole path into its
   local stash.  Data never crosses the main channel.
2. Metadata reads — each SDIMM returns its metadata slices (tag/leaf slices
   plus its plaintext counter slice) to the CPU.
3. The CPU merges slices, reconstructs tags/leaves/counters, and locates
   the requested block; its *shadow stash* mirrors the SDIMM stashes
   index-for-index but holds only tags.
4. FETCH_STASH(index) — each SDIMM returns that stash slot's data slice;
   the CPU merges and decrypts.
5. RECEIVE_LIST — the CPU ships the eviction plan (which stash indices go
   to which path bucket slots), fresh metadata slices, the reassembled old
   counters (needed by the buffers to decrypt their fetched slices), and
   the updated slice of the accessed block.  Each SDIMM re-encrypts,
   re-MACs, and writes its slices back; both sides discard dummy and placed
   entries identically, keeping the stashes aligned.

Stash state inside the buffer chip is trusted SRAM, so slices live there in
plaintext once the counters arrive; DRAM only ever sees ciphertext.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.commands import SdimmCommand
from repro.core.secure_buffer import LinkRecorder
from repro.crypto.ctr import CounterModeCipher
from repro.crypto.mac import MacError, PmmacAuthenticator
from repro.obs.tracer import (
    CATEGORY_PROTOCOL,
    NULL_TRACER,
    StepClock,
    Tracer,
)
from repro.oram.bucket import Block
from repro.oram.posmap import PositionMap
from repro.oram.path_oram import Op
from repro.oram.stash import Stash
from repro.oram.tree import TreeGeometry
from repro.utils.bitops import (
    bit_slice,
    merge_bit_slices,
    merge_bits_round_robin,
    split_bits_round_robin,
)
from repro.utils.rng import DeterministicRng

#: Serialized metadata entry per block slot: 8-byte tag + 8-byte leaf.
_META_ENTRY_BYTES = 16
#: Tag marking a dummy slot, matching repro.oram.bucket.DUMMY_TAG.
_DUMMY_TAG = (1 << 64) - 1


class SplitIntegrityError(Exception):
    """A slice failed its per-SDIMM MAC or desynchronized the counter chain.

    Structured fields mirror :class:`repro.oram.integrity.IntegrityError`
    so failure records treat both uniformly: ``bucket`` is the logical
    bucket index, ``way`` the SDIMM slice that failed (None for merged
    checks), ``kind`` is ``"mac"`` or ``"counter"``.
    """

    def __init__(self, message: str, bucket: Optional[int] = None,
                 way: Optional[int] = None, kind: str = "mac"):
        super().__init__(message)
        self.bucket = bucket
        self.way = way
        self.kind = kind


#: Bit width of the shared bucket counter whose slices the SDIMMs store.
_COUNTER_BITS = 32


@dataclass
class _StoreCell:
    """One bucket's slice as it sits in untrusted DRAM.

    Only this way's *slice* of the shared counter is stored (the paper:
    "half the counter"); the CPU reassembles the full value from all ways.
    The metadata slice and the data slots are cut from one ciphertext under
    one (bucket, counter) keystream: metadata at offset 0, then each slot at
    its own offset, so no two stored slices share pad bytes.
    """

    counter_slice: int
    metadata_ciphertext: bytes
    data_ciphertexts: List[bytes]
    mac: bytes


@dataclass
class _StashSlice:
    """One stash slot inside a buffer: ciphertext until counters arrive."""

    plaintext: Optional[bytes] = None
    ciphertext: Optional[bytes] = None
    origin_bucket: Optional[int] = None
    origin_slot: int = 0


@dataclass
class _ShadowEntry:
    """The CPU's view of the same stash slot: tag-level only."""

    address: Optional[int]   # None = dummy slot
    leaf: int = 0


@dataclass
class BucketMetadata:
    """Merged metadata of one bucket, as reconstructed by the CPU."""

    tags: List[int]
    leaves: List[int]
    counter: int


class SplitBuffer:
    """One SDIMM's secure buffer holding slice ``way`` of every bucket."""

    def __init__(self, way: int, ways: int, geometry: TreeGeometry,
                 blocks_per_bucket: int, block_bytes: int, key: bytes,
                 record_trace: bool = False):
        if block_bytes % ways:
            raise ValueError("block size must divide evenly across ways")
        self.way = way
        self.ways = ways
        self.geometry = geometry
        self.blocks_per_bucket = blocks_per_bucket
        self.block_bytes = block_bytes
        self.slice_bytes = block_bytes // ways
        self.meta_slice_bytes = (blocks_per_bucket * _META_ENTRY_BYTES) // ways
        self._cipher = CounterModeCipher(key + bytes([way]))
        self._mac = PmmacAuthenticator(key + bytes([way]))
        self._store: Dict[int, _StoreCell] = {}
        self.stash: List[_StashSlice] = []
        self.local_line_transfers = 0
        self.writes = 0
        self.record_trace = record_trace
        #: what a probe on this DIMM's internal bus sees: (kind, bucket)
        self.bucket_trace: List[Tuple[str, int]] = []

    # ------------------------------------------------------------------
    # Step 1: FETCH_DATA
    # ------------------------------------------------------------------

    def fetch_data(self, leaf: int) -> None:
        """Pull this way's data slices of the whole path into the stash."""
        for bucket in self.geometry.path(leaf):
            if self.record_trace:
                self.bucket_trace.append(("read", bucket))
            cell = self._store.get(bucket)
            for slot in range(self.blocks_per_bucket):
                entry = _StashSlice(origin_bucket=bucket, origin_slot=slot)
                if cell is None:
                    entry.plaintext = bytes(self.slice_bytes)
                else:
                    entry.ciphertext = cell.data_ciphertexts[slot]
                self.stash.append(entry)
                self.local_line_transfers += 1

    # ------------------------------------------------------------------
    # Step 2: metadata reads (regular RAS/CAS, data returns to the CPU)
    # ------------------------------------------------------------------

    def read_metadata_slice(self, bucket: int) -> Tuple[int,
                                                        Optional[bytes]]:
        """(plaintext counter slice, metadata-slice *ciphertext*).

        The slice MAC is verified here with this way's own counter slice —
        the per-SDIMM PMMAC of the Split design.  The metadata travels to
        the CPU still encrypted: only after merging every way's counter
        slice can anyone (the CPU, which holds the keys) derive the pad.
        ``None`` ciphertext marks a never-written bucket.
        """
        cell = self._store.get(bucket)
        if cell is None:
            return 0, None
        payload = cell.metadata_ciphertext + b"".join(cell.data_ciphertexts)
        try:
            self._mac.verify(self._mac_index(bucket), cell.counter_slice,
                             payload, cell.mac)
        except MacError as error:
            raise SplitIntegrityError(
                f"bucket {bucket} slice failed its way-{self.way} MAC: "
                f"{error}", bucket=bucket, way=self.way,
                kind="mac") from error
        return cell.counter_slice, cell.metadata_ciphertext

    def _mac_index(self, bucket: int) -> int:
        return bucket * self.ways + self.way

    # ------------------------------------------------------------------
    # Step 4: FETCH_STASH
    # ------------------------------------------------------------------

    def fetch_stash(self, index: int, counter_hints: Dict[int, int]) -> bytes:
        """Return the data slice at ``index``, decrypting via the hint map.

        ``counter_hints`` maps origin bucket -> full counter; within one
        access the CPU has just reassembled them from the metadata reads.
        """
        entry = self.stash[index]
        self._materialize(entry, counter_hints)
        return entry.plaintext

    def _materialize(self, entry: _StashSlice,
                     counters: Dict[int, int]) -> None:
        if entry.plaintext is not None:
            return
        counter = counters[entry.origin_bucket]
        entry.plaintext = self._cipher.decrypt(
            entry.ciphertext, entry.origin_bucket, counter,
            self._slot_offset(entry.origin_slot))
        entry.ciphertext = None

    def _slot_offset(self, slot: int) -> int:
        """Keystream offset of data slot ``slot`` within its bucket."""
        return self.meta_slice_bytes + slot * self.slice_bytes

    # ------------------------------------------------------------------
    # Step 5: RECEIVE_LIST
    # ------------------------------------------------------------------

    def receive_list(self, path_buckets: List[int],
                     placements: List[List[Optional[int]]],
                     metadata_slices: List[bytes],
                     new_counters: List[int],
                     old_counters: Dict[int, int],
                     updated_index: int, updated_slice: bytes,
                     discard_indices: List[int]) -> None:
        """Execute the CPU's write-back order.

        ``placements[i][slot]`` names the stash index whose slice fills
        ``path_buckets[i]``'s ``slot`` (None = dummy).  All referenced
        slices are decrypted with ``old_counters``, re-encrypted under the
        bucket's ``new_counters[i]``, and stored with fresh MACs.  Placed
        and discarded indices are then removed, keeping this stash aligned
        with the CPU's shadow.
        """
        # Decrypt everything fetched this access while its counters are at
        # hand; leftovers from earlier accesses are already plaintext, so
        # after every RECEIVE_LIST the whole (trusted-SRAM) stash is clear.
        for entry in self.stash:
            self._materialize(entry, old_counters)
        if 0 <= updated_index < len(self.stash):
            entry = self.stash[updated_index]
            entry.plaintext = updated_slice
            entry.ciphertext = None
        consumed = set(discard_indices)
        for bucket, slots, metadata, counter in zip(
                path_buckets, placements, metadata_slices, new_counters):
            if self.record_trace:
                self.bucket_trace.append(("write", bucket))
            plaintexts = [metadata]
            for slot_index in slots:
                if slot_index is None:
                    plaintexts.append(bytes(self.slice_bytes))
                else:
                    entry = self.stash[slot_index]
                    self._materialize(entry, old_counters)
                    plaintexts.append(entry.plaintext)
                    consumed.add(slot_index)
            # One keystream per (bucket, counter), cut at _slot_offset.
            joined = self._cipher.encrypt(b"".join(plaintexts), bucket,
                                          counter)
            metadata_ciphertext = joined[:self.meta_slice_bytes]
            data_ciphertexts = [
                joined[self._slot_offset(slot):self._slot_offset(slot + 1)]
                for slot in range(len(slots))]
            counter_slice = split_bits_round_robin(
                counter, _COUNTER_BITS, self.ways)[self.way]
            mac = self._mac.tag(self._mac_index(bucket), counter_slice,
                                joined)
            self._store[bucket] = _StoreCell(counter_slice,
                                             metadata_ciphertext,
                                             data_ciphertexts, mac)
            self.writes += 1
        self.stash = [entry for index, entry in enumerate(self.stash)
                      if index not in consumed]

    # ------------------------------------------------------------------

    def tamper_bucket(self, bucket: int) -> None:
        """Adversarial hook: flip a bit of a stored data slice."""
        cell = self._store[bucket]
        first = cell.data_ciphertexts[0]
        cell.data_ciphertexts[0] = bytes([first[0] ^ 1]) + first[1:]

    def snapshot_bucket(self, bucket: int) -> Optional[_StoreCell]:
        """Copy one bucket's raw cell (fault-injection save point)."""
        cell = self._store.get(bucket)
        if cell is None:
            return None
        return _StoreCell(cell.counter_slice, cell.metadata_ciphertext,
                          list(cell.data_ciphertexts), cell.mac)

    def restore_bucket(self, bucket: int,
                       cell: Optional[_StoreCell]) -> None:
        """Put back a snapshot (a transient fault healing on re-read)."""
        if cell is None:
            self._store.pop(bucket, None)
        else:
            self._store[bucket] = cell

    @property
    def stash_occupancy(self) -> int:
        return len(self.stash)


class SplitProtocol:
    """CPU-side orchestration of the Split design over N SDIMMs."""

    def __init__(self, levels: int, ways: int = 2,
                 blocks_per_bucket: int = 4, block_bytes: int = 64,
                 stash_capacity: int = 200, seed: int = 2018,
                 key: bytes = b"split-protocol-key",
                 record_link: bool = False,
                 record_trace: bool = False,
                 tracer: Tracer = NULL_TRACER,
                 trace_lane: str = "split"):
        self.geometry = TreeGeometry(levels)
        self.tracer = tracer
        self.trace_lane = trace_lane
        self.clock = StepClock()
        self.ways = ways
        self.blocks_per_bucket = blocks_per_bucket
        self.block_bytes = block_bytes
        self.stash_capacity = stash_capacity
        rng = DeterministicRng(seed, "split")
        self.rng = rng
        self.posmap = PositionMap(self.geometry.leaf_count,
                                  rng.child("posmap"))
        self.buffers: List[SplitBuffer] = [
            SplitBuffer(way, ways, self.geometry, blocks_per_bucket,
                        block_bytes, key, record_trace=record_trace)
            for way in range(ways)
        ]
        # The CPU holds the same per-way keys (it is in the TCB): it
        # decrypts metadata slices itself once the merged counter is known.
        self._way_ciphers = [CounterModeCipher(key + bytes([way]))
                             for way in range(ways)]
        # Trusted expected-counter chain (the PMMAC recursion stand-in):
        # a replayed stale slice desynchronizes the merged counter, which
        # this mirror catches even though each slice's own MAC verifies.
        self._expected_counters: Dict[int, int] = {}
        self.shadow: List[_ShadowEntry] = []
        self.link = LinkRecorder(enabled=record_link, tracer=tracer,
                                 lane=f"{trace_lane}-link", clock=self.clock)
        self.accesses = 0
        self.stash_peak = 0
        #: Optional resilience handle (repro.faults.recovery) consulted when
        #: a metadata merge fails verification; None = fail fast (today's
        #: behavior, byte-identical when no handle is attached).
        self.resilience = None

    def attach_resilience(self, handle) -> None:
        """Install a retry/backoff policy for failed metadata merges."""
        self.resilience = handle

    # ------------------------------------------------------------------

    def read(self, address: int) -> bytes:
        """Oblivious read of one block."""
        return self.access(address, Op.READ)

    def write(self, address: int, data: bytes) -> None:
        """Oblivious write of one block."""
        self.access(address, Op.WRITE, data)

    def access(self, address: int, op: Op,
               data: Optional[bytes] = None,
               override_new_leaf: Optional[int] = None,
               remove_after: bool = False) -> bytes:
        """One end-to-end request through the Split protocol.

        ``override_new_leaf`` lets an outer protocol (the Independent layer
        of INDEP-SPLIT) dictate the remap target; ``remove_after`` drops the
        accessed block from both stash sides instead of writing it back —
        the block is migrating to another partition.
        """
        if op is Op.WRITE and (data is None or
                               len(data) != self.block_bytes):
            raise ValueError("write requires a full-size payload")
        self.accesses += 1
        old_leaf = self.posmap.lookup(address)
        if override_new_leaf is not None:
            new_leaf = override_new_leaf
        else:
            new_leaf = self.rng.random_leaf(self.geometry.leaf_count)
        self.posmap.set(address, new_leaf)
        path = self.geometry.path(old_leaf)

        # Step 1: FETCH_DATA to every buffer (command only on the channel).
        start = self.clock.now
        for way, buffer in enumerate(self.buffers):
            self.link.up(SdimmCommand.FETCH_DATA, way, 0)
            buffer.fetch_data(old_leaf)
        self._phase_span("FETCH_DATA", start)

        # Step 2+3: metadata reads; merge slices and extend the shadow.
        start = self.clock.now
        old_counters: Dict[int, int] = {}
        for bucket in path:
            metadata = self._read_bucket_metadata(bucket)
            old_counters[bucket] = metadata.counter
            for slot in range(self.blocks_per_bucket):
                tag = metadata.tags[slot]
                if tag == _DUMMY_TAG:
                    self.shadow.append(_ShadowEntry(None))
                else:
                    self.shadow.append(_ShadowEntry(tag,
                                                    metadata.leaves[slot]))
        self._phase_span("METADATA", start)

        # Step 3b: find the requested block among the real tags.
        found_index = None
        for index, entry in enumerate(self.shadow):
            if entry.address == address:
                found_index = index
                break
        if found_index is None:
            self.shadow.append(_ShadowEntry(address, new_leaf))
            found_index = len(self.shadow) - 1
            for buffer in self.buffers:
                buffer.stash.append(_StashSlice(
                    plaintext=bytes(buffer.slice_bytes)))
        else:
            self.shadow[found_index].leaf = new_leaf

        # Step 4: FETCH_STASH from every buffer; merge the data slices.
        start = self.clock.now
        slices = []
        for way, buffer in enumerate(self.buffers):
            self.link.up(SdimmCommand.FETCH_STASH, way, 8)
            piece = buffer.fetch_stash(found_index, old_counters)
            self.link.down(SdimmCommand.FETCH_STASH, way,
                           buffer.slice_bytes)
            slices.append(piece)
        self._phase_span("FETCH_STASH", start)
        merged = merge_bit_slices(slices)
        result = merged
        if op is Op.WRITE:
            merged = data
        if remove_after:
            # The block is leaving this partition: turn its slot into a
            # dummy so the write-back discards it on every side at once.
            self.shadow[found_index].address = None

        # Step 5: plan eviction on the shadow, ship RECEIVE_LIST.
        start = self.clock.now
        self._write_back(path, old_counters, found_index, merged)
        self._phase_span("RECEIVE_LIST", start)
        self.stash_peak = max(self.stash_peak, len(self.shadow))
        return result

    def _phase_span(self, name: str, start: int) -> None:
        """Close one protocol-phase span over the logical link clock."""
        if self.tracer.enabled:
            self.tracer.span(name, CATEGORY_PROTOCOL, self.trace_lane,
                             start, max(start + 1, self.clock.now))

    def dummy_access(self) -> None:
        """A structurally identical access serving no block (queue drains).

        Fetches a uniformly random path, reads metadata, fetches one stash
        slot, and writes the path back — on the bus it looks exactly like a
        real access.
        """
        leaf = self.rng.random_leaf(self.geometry.leaf_count)
        path = self.geometry.path(leaf)
        self.accesses += 1
        start = self.clock.now
        for way, buffer in enumerate(self.buffers):
            self.link.up(SdimmCommand.FETCH_DATA, way, 0)
            buffer.fetch_data(leaf)
        self._phase_span("FETCH_DATA", start)
        base_index = len(self.shadow)
        start = self.clock.now
        old_counters: Dict[int, int] = {}
        for bucket in path:
            metadata = self._read_bucket_metadata(bucket)
            old_counters[bucket] = metadata.counter
            for slot in range(self.blocks_per_bucket):
                tag = metadata.tags[slot]
                if tag == _DUMMY_TAG:
                    self.shadow.append(_ShadowEntry(None))
                else:
                    self.shadow.append(_ShadowEntry(tag,
                                                    metadata.leaves[slot]))
        self._phase_span("METADATA", start)
        start = self.clock.now
        for way, buffer in enumerate(self.buffers):
            self.link.up(SdimmCommand.FETCH_STASH, way, 8)
            piece = buffer.fetch_stash(base_index, old_counters)
            self.link.down(SdimmCommand.FETCH_STASH, way,
                           buffer.slice_bytes)
        self._phase_span("FETCH_STASH", start)
        start = self.clock.now
        self._write_back(path, old_counters, -1, bytes(self.block_bytes))
        self._phase_span("RECEIVE_LIST", start)
        self.stash_peak = max(self.stash_peak, len(self.shadow))

    # ------------------------------------------------------------------

    def _read_bucket_metadata(self, bucket: int) -> BucketMetadata:
        """Merge one bucket's metadata, retrying on verification failure.

        Without a resilience handle this is exactly ``_merge_metadata`` —
        the first failure propagates.  With one, each failed merge is
        reported to the handle, which decides (by retry budget and backoff)
        whether to re-issue the metadata read.  A retry replays the same
        per-way link events as the original read, so on the bus it is
        indistinguishable from any other metadata fetch.
        """
        handle = self.resilience
        if handle is None:
            return self._merge_metadata(bucket)
        attempt = 0
        while True:
            try:
                return self._merge_metadata(bucket)
            except SplitIntegrityError as error:
                attempt += 1
                if not handle.on_integrity_failure("split", bucket, error,
                                                   attempt):
                    raise

    def _merge_metadata(self, bucket: int) -> BucketMetadata:
        """Reassemble one bucket's metadata from every way's slice.

        Each way returns its plaintext counter slice and its *encrypted*
        metadata slice; the CPU merges the counter slices round-robin into
        the full counter, derives each way's pad, decrypts, and interleaves
        the plaintext slices (Section III-D steps 2-3).
        """
        counter_slices = []
        ciphertexts = []
        for buffer in self.buffers:
            counter_slice, ciphertext = buffer.read_metadata_slice(bucket)
            counter_slices.append(counter_slice)
            ciphertexts.append(ciphertext)
            self.link.down(None, buffer.way,
                           (len(ciphertext) if ciphertext else
                            self.buffers[0].meta_slice_bytes) + 8)
        counter = merge_bits_round_robin(counter_slices, _COUNTER_BITS)
        expected = self._expected_counters.get(bucket, 0)
        if counter != expected:
            raise SplitIntegrityError(
                f"bucket {bucket} counter {counter} does not match the "
                f"trusted chain ({expected}): stale or desynchronized "
                f"slices", bucket=bucket, kind="counter")
        metadata_slices = []
        for buffer, ciphertext in zip(self.buffers, ciphertexts):
            if ciphertext is None:
                metadata_slices.append(
                    self._empty_metadata_slice(buffer.way))
            else:
                metadata_slices.append(
                    self._way_ciphers[buffer.way].decrypt(
                        ciphertext, bucket, counter))
        full = merge_bit_slices(metadata_slices)
        tags = []
        leaves = []
        for slot in range(self.blocks_per_bucket):
            offset = slot * _META_ENTRY_BYTES
            tags.append(int.from_bytes(full[offset:offset + 8], "little"))
            leaves.append(int.from_bytes(full[offset + 8:offset + 16],
                                         "little"))
        return BucketMetadata(tags, leaves, counter)

    def _empty_metadata_slice(self, way: int) -> bytes:
        full = b""
        for _ in range(self.blocks_per_bucket):
            full += _DUMMY_TAG.to_bytes(8, "little") + bytes(8)
        return bit_slice(full, way, self.ways)

    def _write_back(self, path: List[int], old_counters: Dict[int, int],
                    updated_index: int, updated_data: bytes) -> None:
        # Greedy eviction over the shadow (tags only), reusing the standard
        # Path ORAM planner via throwaway Block records.
        planner = Stash(self.stash_capacity)
        index_of = {}
        for index, entry in enumerate(self.shadow):
            if entry.address is not None:
                planner.add(Block(entry.address, entry.leaf, b""))
                index_of[entry.address] = index
        leaf = self._leaf_of_path(path)
        placement = planner.plan_eviction(self.geometry, leaf,
                                          self.blocks_per_bucket)

        placements: List[List[Optional[int]]] = []
        metadata_full: List[bytes] = []
        new_counters: List[int] = []
        for level, bucket in enumerate(path):
            slots: List[Optional[int]] = []
            chosen = placement.get(level, [])
            metadata = b""
            for slot in range(self.blocks_per_bucket):
                if slot < len(chosen):
                    block = chosen[slot]
                    slots.append(index_of[block.address])
                    metadata += block.address.to_bytes(8, "little")
                    metadata += block.leaf.to_bytes(8, "little")
                else:
                    slots.append(None)
                    metadata += _DUMMY_TAG.to_bytes(8, "little") + bytes(8)
            placements.append(slots)
            metadata_full.append(metadata)
            new_counters.append(old_counters[bucket] + 1)
            self._expected_counters[bucket] = new_counters[-1]

        placed = {index for slots in placements for index in slots
                  if index is not None}
        discard = [index for index, entry in enumerate(self.shadow)
                   if entry.address is None]

        for way, buffer in enumerate(self.buffers):
            metadata_slices = [bit_slice(metadata, way, self.ways)
                               for metadata in metadata_full]
            updated_slice = bit_slice(updated_data, way, self.ways)
            payload = sum(len(m) for m in metadata_slices) + \
                len(updated_slice) + 8 * len(path)
            self.link.up(SdimmCommand.RECEIVE_LIST, way, payload)
            buffer.receive_list(path, placements, metadata_slices,
                                new_counters, old_counters,
                                updated_index, updated_slice, discard)

        consumed = placed | set(discard)
        self.shadow = [entry for index, entry in enumerate(self.shadow)
                       if index not in consumed]

    def _leaf_of_path(self, path: List[int]) -> int:
        leaf_bucket = path[-1]
        return self.geometry.position_of(leaf_bucket)

    # ------------------------------------------------------------------

    @property
    def shadow_occupancy(self) -> int:
        return len(self.shadow)

    def stashes_aligned(self) -> bool:
        """Invariant: every buffer stash matches the shadow, slot for slot."""
        return all(len(buffer.stash) == len(self.shadow)
                   for buffer in self.buffers)
