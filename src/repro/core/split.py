"""The Split ORAM protocol (Section III-D).

Every bucket of one logical tree is bit-sliced across N SDIMMs: each SDIMM
stores 1/N of every data block, 1/N of every tag and leaf ID, 1/N of the
shared write counter, and its *own* MAC over its own slice (the N-fold MAC
overhead the paper accepts).  One access proceeds as:

1. FETCH_DATA — each SDIMM pulls its data slices of the whole path into its
   local stash.  Data never crosses the main channel.
2. Metadata reads — each SDIMM verifies the cell it fetched against its
   own MAC and returns its metadata slices (tag/leaf slices plus its
   plaintext counter slice) to the CPU.
3. The CPU checks every way's counter slice against the slices its
   trusted chain stored at the last write-back, decrypts and merges the
   tag/leaf slices, and locates the requested block; its *shadow stash*
   mirrors the SDIMM stashes index-for-index but holds only tags.
4. FETCH_STASH(index) — each SDIMM returns that stash slot's data slice;
   the CPU merges and decrypts.
5. RECEIVE_LIST — the CPU ships the eviction plan (which stash indices go
   to which path bucket slots), fresh metadata slices, the reassembled old
   counters (needed by the buffers to decrypt their fetched slices), and
   the updated slice of the accessed block.  Each SDIMM re-encrypts,
   re-MACs, and writes its slices back; both sides discard dummy and placed
   entries identically, keeping the stashes aligned.

Stash state inside the buffer chip is trusted SRAM, so slices live there in
plaintext once the counters arrive; DRAM only ever sees ciphertext.  The
bucket is the unit of storage and crypto: each way keeps one ciphertext
and one MAC per bucket, and decrypts a fetched bucket's data slots in one
call.

A bucket's metadata read is the one store a retry layer wraps
(:meth:`SplitProtocol.wrap_stores`): a read that fails verification
re-fetches that bucket's cells on-DIMM in every way, so the retry
verifies — and then serves — the cells it re-read.
"""

from __future__ import annotations

import struct
from itertools import compress
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.commands import SdimmCommand
from repro.core.secure_buffer import LinkRecorder
from repro.crypto.ctr import CounterModeCipher
from repro.crypto.mac import MacError, PmmacAuthenticator
from repro.oram.integrity import IntegrityError
from repro.obs.tracer import (
    CATEGORY_PROTOCOL,
    NULL_TRACER,
    StepClock,
    Tracer,
)
from repro.oram.posmap import PositionMap
from repro.oram.path_oram import Op
from repro.oram.stash import Stash
from repro.oram.tree import TreeGeometry
from repro.utils.bitops import (
    merge_bit_slices,
    merge_bits_round_robin,
    split_bits_round_robin,
)
from repro.utils.rng import DeterministicRng

#: Tag marking a dummy slot, matching repro.oram.bucket.DUMMY_TAG.
_DUMMY_TAG = (1 << 64) - 1
#: (tag, leaf) metadata of an empty slot.
_EMPTY_ENTRY = (_DUMMY_TAG, 0)


class SplitIntegrityError(IntegrityError):
    """A slice failed its per-SDIMM MAC or desynchronized the counter chain.

    An :class:`~repro.oram.integrity.IntegrityError`, so one retry layer
    and one failure-record format serve every design: ``bucket`` is the
    logical bucket index, ``way`` the SDIMM slice that failed (None for
    merged checks), ``kind`` is ``"mac"`` or ``"counter"``.
    """

    def __init__(self, message: str, bucket: Optional[int] = None,
                 way: Optional[int] = None, kind: str = "mac"):
        super().__init__(message, kind=kind)
        self.bucket = bucket
        self.way = way


#: Bit width of the shared bucket counter whose slices the SDIMMs store.
_COUNTER_BITS = 32


class _StoreCell(NamedTuple):
    """One bucket's slice as it sits in untrusted DRAM.

    Only this way's *slice* of the shared counter is stored (the paper:
    "half the counter"); the CPU reassembles the full value from all ways.
    The metadata slice and the data slots are one ciphertext under one
    (bucket, counter) keystream: metadata at offset 0, then slot ``s`` at
    :meth:`SplitBuffer._slot_offset`, so no two stored slices share pad
    bytes.  The MAC covers the whole ciphertext.
    """

    counter_slice: int
    ciphertext: bytes
    mac: bytes


class _ShadowEntry:
    """The CPU's view of a real block's stash slot: tag-level only.

    A dummy slot's shadow entry is None.
    """

    __slots__ = ("address", "leaf")

    def __init__(self, address: int, leaf: int):
        self.address = address
        self.leaf = leaf


class BucketMetadata(NamedTuple):
    """One bucket's metadata, as reconstructed by the CPU."""

    counter: int
    #: (tag, leaf) of every slot, interleaved
    fields: Tuple[int, ...]


class SplitBuffer:
    """One SDIMM's secure buffer holding slice ``way`` of every bucket."""

    def __init__(self, way: int, ways: int, blocks_per_bucket: int,
                 block_bytes: int, key: bytes, record_trace: bool = False):
        if block_bytes % ways:
            raise ValueError("block size must divide evenly across ways")
        if blocks_per_bucket * 16 % ways:
            raise ValueError("bucket metadata must divide evenly across ways")
        self.way = way
        self.ways = ways
        self.blocks_per_bucket = blocks_per_bucket
        self.block_bytes = block_bytes
        self.slice_bytes = block_bytes // ways
        #: metadata per slot: 8-byte tag + 8-byte leaf, sliced across ways
        self.meta_slice_bytes = (blocks_per_bucket * 16) // ways
        self._cipher = CounterModeCipher(key + bytes([way]))
        self._mac = PmmacAuthenticator(key + bytes([way]))
        self._store: Dict[int, _StoreCell] = {}
        #: plaintext data slices (trusted SRAM); None marks a slot of a
        #: fetched bucket whose counter has not arrived yet
        self.stash: List[Optional[bytes]] = []
        #: bucket -> (first stash index, cell or None) of every bucket the
        #: last FETCH_DATA read: the cells the metadata read verifies
        self._fetched: Dict[int, Tuple[int, Optional[_StoreCell]]] = {}
        self.local_line_transfers = 0
        self.writes = 0
        self.record_trace = record_trace
        #: what a probe on this DIMM's internal bus sees: (kind, bucket)
        self.bucket_trace: List[Tuple[str, int]] = []

    # ------------------------------------------------------------------
    # Step 1: FETCH_DATA
    # ------------------------------------------------------------------

    def fetch_data(self, path: List[int]) -> None:
        """Pull this way's data slices of the whole path into the stash."""
        self._fetched = {}
        for bucket in path:
            self._load(bucket, len(self.stash))

    def refetch(self, bucket: int) -> None:
        """Re-read one fetched bucket's cell on-DIMM (a retried read)."""
        self._load(bucket, self._fetched[bucket][0])

    def _load(self, bucket: int, first: int) -> None:
        """Copy one bucket's cell from DRAM into stash slots ``first`` on.

        The cell is recorded, a missing one as None.  A never-written
        bucket contributes zero slices; a written one placeholders until
        the CPU's counters arrive to decrypt its data ciphertext.
        """
        if self.record_trace:
            self.bucket_trace.append(("read", bucket))
        cell = self._store.get(bucket)
        self._fetched[bucket] = (first, cell)
        slots = self.blocks_per_bucket
        fill = bytes(self.slice_bytes) if cell is None else None
        self.stash[first:first + slots] = [fill] * slots
        self.local_line_transfers += slots

    # ------------------------------------------------------------------
    # Step 2: metadata reads (regular RAS/CAS, data returns to the CPU)
    # ------------------------------------------------------------------

    def read_metadata_slice(self, bucket: int) -> Tuple[int,
                                                        Optional[bytes]]:
        """(plaintext counter slice, metadata-slice *ciphertext*).

        The MAC of the cell FETCH_DATA read, whose data slices this way
        serves, is verified here with this way's own counter slice — the
        per-SDIMM PMMAC of the Split design.  The metadata travels to the
        CPU still encrypted: only after merging every way's counter
        slice can anyone (the CPU, which holds the keys) derive the pad.
        ``None`` ciphertext marks a never-written bucket.
        """
        _, cell = self._fetched[bucket]
        if cell is None:
            return 0, None
        try:
            self._mac.verify(self._mac_index(bucket), cell.counter_slice,
                             cell.ciphertext, cell.mac)
        except MacError as error:
            raise SplitIntegrityError(
                f"bucket {bucket} slice failed its way-{self.way} MAC: "
                f"{error}", bucket=bucket, way=self.way,
                kind="mac") from error
        return cell.counter_slice, cell.ciphertext[:self.meta_slice_bytes]

    def _mac_index(self, bucket: int) -> int:
        return bucket * self.ways + self.way

    # ------------------------------------------------------------------
    # Step 4: FETCH_STASH
    # ------------------------------------------------------------------

    def fetch_stash(self, index: int, counter_hints: Dict[int, int]) -> bytes:
        """Return the data slice at ``index``, decrypting via the hint map.

        ``counter_hints`` maps origin bucket -> full counter; within one
        access the CPU has just reassembled them from the metadata reads.
        Only the bucket holding ``index`` is decrypted here.
        """
        if self.stash[index] is None:
            slots = self.blocks_per_bucket
            self._decrypt(next(bucket for bucket, (first, _)
                               in self._fetched.items()
                               if first <= index < first + slots),
                          counter_hints)
        return self.stash[index]

    def _decrypt(self, bucket: int, counters: Dict[int, int]) -> None:
        """Decrypt one fetched bucket's data slots in one call."""
        first, cell = self._fetched[bucket]
        meta = self.meta_slice_bytes
        plaintext = self._cipher.decrypt(cell.ciphertext[meta:], bucket,
                                         counters[bucket], meta)
        size = self.slice_bytes
        self.stash[first:first + self.blocks_per_bucket] = [
            plaintext[offset:offset + size]
            for offset in range(0, len(plaintext), size)]

    def _slot_offset(self, slot: int) -> int:
        """Keystream offset of data slot ``slot`` within its bucket."""
        return self.meta_slice_bytes + slot * self.slice_bytes

    # ------------------------------------------------------------------
    # Step 5: RECEIVE_LIST
    # ------------------------------------------------------------------

    def receive_list(self, path_buckets: List[int],
                     placements: List[List[int]],
                     metadata_slices: List[bytes],
                     new_counters: List[int],
                     counter_slices: List[List[int]],
                     old_counters: Dict[int, int],
                     updated_index: int, updated_slice: bytes,
                     live: List[bool], keep: List[bool]) -> None:
        """Execute the CPU's write-back order.

        ``placements[i]`` names the stash indices whose slices fill
        ``path_buckets[i]``'s first slots; the rest are dummies.  Every
        fetched bucket still pending is decrypted with ``old_counters``,
        unless ``live`` marks all its slots as discarded dummies; each
        path bucket is then re-encrypted as one ciphertext under its
        ``new_counters[i]`` and stored with this way's slice of
        ``counter_slices[i]`` and a fresh MAC.  Only the indices ``keep``
        marks stay, keeping this stash aligned with the CPU's shadow.
        """
        # After every RECEIVE_LIST the whole (trusted-SRAM) stash is clear.
        stash = self.stash
        slots = self.blocks_per_bucket
        for bucket, (first, _) in self._fetched.items():
            if stash[first] is None and any(live[first:first + slots]):
                self._decrypt(bucket, old_counters)
        if 0 <= updated_index < len(stash):
            stash[updated_index] = updated_slice
        empty = bytes(self.slice_bytes)
        for bucket, placed, metadata, counter, slices in zip(
                path_buckets, placements, metadata_slices, new_counters,
                counter_slices):
            if self.record_trace:
                self.bucket_trace.append(("write", bucket))
            ciphertext = self._cipher.encrypt(b"".join([
                metadata, *[stash[index] for index in placed],
                empty * (slots - len(placed))]), bucket, counter)
            counter_slice = slices[self.way]
            self._store[bucket] = _StoreCell(
                counter_slice, ciphertext,
                self._mac.tag(self._mac_index(bucket), counter_slice,
                              ciphertext))
        self.writes += len(path_buckets)
        self.stash = list(compress(stash, keep))

    # ------------------------------------------------------------------

    def tamper_bucket(self, bucket: int, bit: int = 0) -> None:
        """Adversarial hook: flip bit ``bit`` of a stored data slice."""
        cell = self._store[bucket]
        flipped = bytearray(cell.ciphertext)
        flipped[self._slot_offset(0) + bit // 8] ^= 1 << (bit % 8)
        self._store[bucket] = cell._replace(ciphertext=bytes(flipped))

    def snapshot_bucket(self, bucket: int) -> Optional[_StoreCell]:
        """One bucket's raw cell (fault-injection save point).

        Cells are immutable, so the stored cell is its own snapshot.
        """
        return self._store.get(bucket)

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


class MetadataReader:
    """The CPU's per-bucket metadata read, as a store a retry layer wraps.

    ``read(bucket)`` verifies and merges one bucket's slices from every
    way.  ``begin_access()`` runs when a real access begins (a dummy
    access does not call it): a no-op here, it is the hook a fault proxy
    arms on.  ``noun`` names what it reads in retry failure text, and
    ``buffers`` are the way buffers a fault proxy arms.
    """

    noun = "split bucket"

    def __init__(self, protocol: "SplitProtocol"):
        self.buffers = protocol.buffers
        self.read = protocol._read_metadata

    def begin_access(self) -> None:
        """A real access begins (no-op)."""


class SplitProtocol:
    """CPU-side orchestration of the Split design over N SDIMMs."""

    def __init__(self, levels: int, ways: int = 2,
                 blocks_per_bucket: int = 4, block_bytes: int = 64,
                 stash_capacity: int = 200, seed: int = 2018,
                 key: bytes = b"split-protocol-key",
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
            SplitBuffer(way, ways, blocks_per_bucket, block_bytes, key,
                        record_trace=record_trace)
            for way in range(ways)
        ]
        # The CPU holds the same per-way keys (it is in the TCB): it
        # decrypts metadata slices itself once the merged counter is known.
        self._way_ciphers = [CounterModeCipher(key + bytes([way]))
                             for way in range(ways)]
        #: one bucket's metadata: (tag, leaf) per slot, little-endian u64s
        self._metadata = struct.Struct(f"<{2 * blocks_per_bucket}Q")
        self._empty_metadata = self._metadata.pack(
            *_EMPTY_ENTRY * blocks_per_bucket)
        # Trusted expected-counter chain (the PMMAC recursion stand-in):
        # a replayed stale slice desynchronizes the counter, which this
        # mirror catches even though each slice's own MAC verifies.  The
        # chain keeps each counter and the slices it was stored as.
        self._expected_counters: Dict[int, int] = {}
        self._expected_slices: Dict[int, List[int]] = {}
        self._unwritten_slices = [0] * ways
        #: one entry per stash slot, None for a dummy
        self.shadow: List[Optional[_ShadowEntry]] = []
        self.link = LinkRecorder(tracer=tracer, lane=f"{trace_lane}-link",
                                 clock=self.clock)
        self.accesses = 0
        self.stash_peak = 0
        #: The bucket whose last metadata read failed verification
        self._unverified: Optional[int] = None
        self.metadata_reader = MetadataReader(self)

    def wrap_stores(self, wrapper) -> None:
        """Replace the metadata reader with ``wrapper(0, reader)``.

        Plain Split is one site: every bucket's slices span every way.
        """
        self.metadata_reader = wrapper(0, self.metadata_reader)

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

        # here, not in _fetch_data: a dummy access (a queue drain) does
        # not begin an access of the reader
        self.metadata_reader.begin_access()
        self._fetch_data(path)
        old_counters = self._read_path_metadata(path)

        # Step 3b: find the requested block among the real tags.
        found_index = None
        for index, entry in enumerate(self.shadow):
            if entry is not None and entry.address == address:
                found_index = index
                break
        if found_index is None:
            self.shadow.append(_ShadowEntry(address, new_leaf))
            found_index = len(self.shadow) - 1
            for buffer in self.buffers:
                buffer.stash.append(bytes(buffer.slice_bytes))
        else:
            self.shadow[found_index].leaf = new_leaf

        merged = merge_bit_slices(self._fetch_stash(found_index,
                                                    old_counters))
        result = merged
        if op is Op.WRITE:
            merged = data
        if remove_after:
            # The block is leaving this partition: turn its slot into a
            # dummy so the write-back discards it on every side at once.
            self.shadow[found_index] = None

        self._write_back(path, old_counters, found_index, merged)
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
        self._fetch_data(path)
        base_index = len(self.shadow)
        old_counters = self._read_path_metadata(path)
        self._fetch_stash(base_index, old_counters)
        self._write_back(path, old_counters, -1, bytes(self.block_bytes))

    # ------------------------------------------------------------------

    def _fetch_data(self, path: List[int]) -> None:
        """Step 1: FETCH_DATA to every buffer (command only on the channel)."""
        start = self.clock.now
        self._unverified = None
        for way, buffer in enumerate(self.buffers):
            self.link.up(SdimmCommand.FETCH_DATA, way, 0)
            buffer.fetch_data(path)
        self._phase_span("FETCH_DATA", start)

    def _read_path_metadata(self, path: List[int]) -> Dict[int, int]:
        """Steps 2-3: merge each path bucket's metadata into the shadow.

        Returns each bucket's merged (old) counter.
        """
        start = self.clock.now
        old_counters: Dict[int, int] = {}
        shadow = self.shadow
        for bucket in path:
            metadata = self.metadata_reader.read(bucket)
            old_counters[bucket] = metadata.counter
            fields = metadata.fields
            for slot in range(0, len(fields), 2):
                tag = fields[slot]
                shadow.append(None if tag == _DUMMY_TAG else
                              _ShadowEntry(tag, fields[slot + 1]))
        self._phase_span("METADATA", start)
        return old_counters

    def _fetch_stash(self, index: int,
                     old_counters: Dict[int, int]) -> List[bytes]:
        """Step 4: FETCH_STASH from every buffer; their data slices."""
        start = self.clock.now
        slices = []
        for way, buffer in enumerate(self.buffers):
            self.link.up(SdimmCommand.FETCH_STASH, way, 8)
            slices.append(buffer.fetch_stash(index, old_counters))
            self.link.down(SdimmCommand.FETCH_STASH, way,
                           buffer.slice_bytes)
        self._phase_span("FETCH_STASH", start)
        return slices

    def _read_metadata(self, bucket: int) -> BucketMetadata:
        """Verify and reassemble one bucket's metadata from every way.

        Each way returns its plaintext counter slice and its *encrypted*
        metadata slice; the CPU checks the counter slices against the
        slices its trusted chain stored, derives each way's pad from the
        chain's full counter, decrypts, and interleaves the plaintext
        slices (Section III-D steps 2-3).  The slices are merged into a
        counter only to word a failure.

        A bucket whose last read failed verification is first re-fetched
        on-DIMM in every way, with no link event, so a retry verifies the
        cells it re-read.
        """
        if bucket == self._unverified:
            for buffer in self.buffers:
                buffer.refetch(bucket)
        # stays set unless every check below passes
        self._unverified = bucket
        counter_slices = []
        ciphertexts = []
        for buffer in self.buffers:
            counter_slice, ciphertext = buffer.read_metadata_slice(bucket)
            counter_slices.append(counter_slice)
            ciphertexts.append(ciphertext)
            self.link.down(None, buffer.way, buffer.meta_slice_bytes + 8)
        expected = self._expected_counters.get(bucket, 0)
        if counter_slices != self._expected_slices.get(
                bucket, self._unwritten_slices):
            counter = merge_bits_round_robin(counter_slices, _COUNTER_BITS)
            raise SplitIntegrityError(
                f"bucket {bucket} counter {counter} does not match the "
                f"trusted chain ({expected}): stale or desynchronized "
                f"slices", bucket=bucket, kind="counter")
        self._unverified = None
        ways = self.ways
        merged = bytearray(self._empty_metadata)
        for way, ciphertext in enumerate(ciphertexts):
            if ciphertext is not None:
                merged[way::ways] = self._way_ciphers[way].decrypt(
                    ciphertext, bucket, expected)
        return BucketMetadata(expected, self._metadata.unpack(merged))

    def _write_back(self, path: List[int], old_counters: Dict[int, int],
                    updated_index: int, updated_data: bytes) -> None:
        """Step 5: plan eviction on the shadow, ship RECEIVE_LIST."""
        start = self.clock.now
        # Greedy eviction over the shadow (tags only), reusing the standard
        # Path ORAM planner: it reads only each entry's address and leaf.
        # One walk over the shadow marks the live (non-dummy) slots.
        planner = Stash(self.stash_capacity)
        index_of = {}
        live = []
        for index, entry in enumerate(self.shadow):
            live.append(entry is not None)
            if entry is not None:
                planner.add(entry)
                index_of[entry.address] = index
        leaf = self._leaf_of_path(path)
        placement = planner.plan_eviction(self.geometry, leaf,
                                          self.blocks_per_bucket)

        # One walk over the plan: placements, metadata slices, counters.
        ways = self.ways
        keep = live.copy()
        placements: List[List[int]] = []
        metadata_slices: List[List[bytes]] = [[] for _ in range(ways)]
        new_counters: List[int] = []
        counter_slices: List[List[int]] = []
        for level, bucket in enumerate(path):
            placed = []
            fields = []
            for block in placement.get(level, ()):
                index = index_of[block.address]
                placed.append(index)
                keep[index] = False
                fields += (block.address, block.leaf)
            placements.append(placed)
            metadata = self._metadata.pack(
                *fields, *_EMPTY_ENTRY * (self.blocks_per_bucket -
                                          len(placed)))
            for way in range(ways):
                metadata_slices[way].append(metadata[way::ways])
            counter = old_counters[bucket] + 1
            new_counters.append(counter)
            self._expected_counters[bucket] = counter
            slices = split_bits_round_robin(counter, _COUNTER_BITS, ways)
            self._expected_slices[bucket] = slices
            counter_slices.append(slices)

        for way, buffer in enumerate(self.buffers):
            payload = len(path) * (buffer.meta_slice_bytes + 8) + \
                buffer.slice_bytes
            self.link.up(SdimmCommand.RECEIVE_LIST, way, payload)
            buffer.receive_list(path, placements, metadata_slices[way],
                                new_counters, counter_slices, old_counters,
                                updated_index, updated_data[way::ways],
                                live, keep)

        self.shadow = list(compress(self.shadow, keep))
        self._phase_span("RECEIVE_LIST", start)
        self.stash_peak = max(self.stash_peak, len(self.shadow))

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
