"""Functional tests for the Split ORAM protocol."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.commands import SdimmCommand
from repro.core.indep_split import IndepSplitProtocol
from repro.core.split import SplitIntegrityError, SplitProtocol
from repro.oram.path_oram import Op
from repro.utils.bitops import bit_slice


def make_protocol(levels=6, ways=2, seed=2018, **kwargs):
    return SplitProtocol(levels=levels, ways=ways, block_bytes=16,
                         stash_capacity=200, seed=seed, **kwargs)


def payload(value):
    return value.to_bytes(4, "little") * 4


#: A block with no zero byte, so each of its way-slices is non-trivial.
SECRET_BLOCK = bytes(range(1, 65))


def stored_slices(buffer, cell):
    """(metadata slice, data slot slices) cut from a cell's one ciphertext."""
    ciphertext = cell.ciphertext
    data = [ciphertext[buffer._slot_offset(slot):
                       buffer._slot_offset(slot + 1)]
            for slot in range(buffer.blocks_per_bucket)]
    return ciphertext[:buffer.meta_slice_bytes], data


def assert_slices_share_no_pad(buffers, ways):
    """No stored slice repeats, and no two XOR to a slice of the block.

    Under a shared pad a dummy slot's ciphertext *is* the pad, so a real
    slot XOR a dummy slot would hand DRAM the plaintext slice.
    """
    way_slices = {bit_slice(SECRET_BLOCK, way, ways) for way in range(ways)}
    cells = [(buffer, cell) for buffer in buffers
             for cell in buffer._store.values()]
    assert cells
    for buffer, cell in cells:
        metadata, data = stored_slices(buffer, cell)
        slices = [metadata] + data
        assert len(set(slices)) == len(slices)
        for first in range(len(data)):
            for second in range(first + 1, len(data)):
                mixed = bytes(x ^ y for x, y in zip(data[first],
                                                    data[second]))
                assert mixed not in way_slices


def assert_stash_state(protocol):
    """Between accesses every stash slot is plaintext and nothing waits."""
    assert protocol.stashes_aligned()
    for buffer in protocol.buffers:
        assert buffer._pending == {}
        for entry in buffer.stash:
            assert isinstance(entry, bytes)
            assert len(entry) == buffer.slice_bytes


class TestCorrectness:
    def test_read_after_write(self):
        protocol = make_protocol()
        protocol.write(5, payload(42))
        assert protocol.read(5) == payload(42)

    def test_unwritten_reads_zero(self):
        protocol = make_protocol()
        assert protocol.read(9) == bytes(16)

    def test_overwrite(self):
        protocol = make_protocol()
        for round_number in range(8):
            protocol.write(3, payload(round_number))
            assert protocol.read(3) == payload(round_number)

    def test_many_blocks(self):
        protocol = make_protocol(levels=8)
        for address in range(60):
            protocol.write(address, payload(address + 900))
        for address in range(60):
            assert protocol.read(address) == payload(address + 900)

    def test_four_way_split(self):
        protocol = make_protocol(ways=4)
        for address in range(20):
            protocol.write(address, payload(address))
        for address in range(20):
            assert protocol.read(address) == payload(address)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 255)),
                    min_size=1, max_size=30))
    def test_matches_reference_dict(self, operations):
        protocol = make_protocol(levels=5)
        reference = {}
        for address, value in operations:
            protocol.write(address, payload(value))
            reference[address] = payload(value)
        for address, expected in reference.items():
            assert protocol.read(address) == expected

    def test_write_validates_size(self):
        with pytest.raises(ValueError):
            make_protocol().access(1, Op.WRITE, b"small")

    def test_block_size_must_divide(self):
        with pytest.raises(ValueError):
            SplitProtocol(levels=5, ways=3, block_bytes=16)


class TestSlicing:
    def test_no_buffer_holds_whole_block(self):
        """Each SDIMM stores 1/N of every block — never the whole thing."""
        protocol = make_protocol()
        secret = bytes(range(16))
        protocol.write(1, secret)
        for buffer in protocol.buffers:
            cells = buffer._store.values()
            for cell in cells:
                for ciphertext in stored_slices(buffer, cell)[1]:
                    assert len(ciphertext) == 8  # 16 bytes / 2 ways
                    assert secret not in ciphertext

    def test_slices_of_one_bucket_use_distinct_pads(self):
        protocol = SplitProtocol(levels=5, ways=2, block_bytes=64, seed=3)
        protocol.write(7, SECRET_BLOCK)
        for address in (2, 7, 11):
            protocol.read(address)
        assert_slices_share_no_pad(protocol.buffers, 2)

    def test_indep_split_slices_use_distinct_pads(self):
        protocol = IndepSplitProtocol(global_levels=6, groups=2, ways=2,
                                      block_bytes=64, seed=3)
        for address in range(4):
            protocol.write(address, SECRET_BLOCK)
        for address in range(4):
            assert protocol.read(address) == SECRET_BLOCK
        buffers = [buffer for group in protocol.groups
                   for buffer in group.split.buffers]
        assert_slices_share_no_pad(buffers, 2)

    def test_stashes_stay_aligned(self):
        protocol = make_protocol()
        for address in range(30):
            protocol.write(address, payload(address))
            assert protocol.stashes_aligned()

    def test_stash_state_between_accesses(self):
        """Reads, writes and dummy accesses leave no slot encrypted."""
        protocol = make_protocol(levels=6, seed=4)
        rng = random.Random(4)
        for _ in range(80):
            choice = rng.random()
            if choice < 0.2:
                protocol.dummy_access()
            elif choice < 0.6:
                protocol.write(rng.randrange(24), payload(rng.randrange(256)))
            else:
                protocol.read(rng.randrange(24))
            assert_stash_state(protocol)

    def test_indep_split_stash_state_through_migrations(self):
        protocol = IndepSplitProtocol(global_levels=7, groups=2, ways=2,
                                      block_bytes=16, seed=6,
                                      drain_probability=0.3)
        rng = random.Random(6)
        for _ in range(80):
            address = rng.randrange(24)
            if rng.random() < 0.5:
                protocol.write(address, payload(rng.randrange(256)))
            else:
                protocol.read(address)
            for group in protocol.groups:
                assert_stash_state(group.split)
        queues = [group.queue for group in protocol.groups]
        assert sum(queue.arrivals for queue in queues) > 0
        assert sum(queue.drain_services for queue in queues) > 0

    def test_dummy_access_preserves_alignment(self):
        protocol = make_protocol()
        protocol.write(1, payload(1))
        for _ in range(10):
            protocol.dummy_access()
            assert protocol.stashes_aligned()
        assert protocol.read(1) == payload(1)

    def test_shadow_occupancy_bounded(self):
        protocol = make_protocol(levels=7, seed=9)
        for address in range(200):
            protocol.write(address % 50, payload(address))
        # eviction keeps the stash near-empty between accesses
        assert protocol.shadow_occupancy < 60

    def test_mac_overhead_is_per_way(self):
        """n-way splitting stores n MACs per bucket (the paper's overhead)."""
        protocol = make_protocol(ways=4)
        protocol.write(1, payload(1))
        macs_per_bucket = 0
        sample_bucket = None
        for buffer in protocol.buffers:
            if buffer._store:
                sample_bucket = next(iter(buffer._store))
                break
        for buffer in protocol.buffers:
            if sample_bucket in buffer._store:
                macs_per_bucket += 1
        assert macs_per_bucket == 4


class TestIntegrity:
    def test_tampered_slice_detected(self):
        protocol = make_protocol(seed=5)
        protocol.write(1, payload(1))
        victim = protocol.buffers[0]
        bucket = next(iter(victim._store))
        victim.tamper_bucket(bucket)
        with pytest.raises(SplitIntegrityError):
            for _ in range(200):
                protocol.read(1)

    @pytest.mark.parametrize("where", ["metadata", "slot0", "last-slot",
                                       "counter"])
    @pytest.mark.parametrize("way", [0, 1])
    def test_flipped_byte_detected(self, where, way):
        """One flipped byte anywhere in a cell fails that way's MAC."""
        protocol = make_protocol(seed=5)
        protocol.write(1, payload(1))
        victim = protocol.buffers[way]
        cell = victim._store[0]  # the root: every access reads it first
        if where == "counter":
            victim._store[0] = cell._replace(
                counter_slice=cell.counter_slice ^ 1)
        else:
            offset = {"metadata": 0,
                      "slot0": victim._slot_offset(0),
                      "last-slot": len(cell.ciphertext) - 1}[where]
            flipped = bytearray(cell.ciphertext)
            flipped[offset] ^= 0x80
            victim._store[0] = cell._replace(ciphertext=bytes(flipped))
        with pytest.raises(SplitIntegrityError) as caught:
            protocol.read(1)
        assert (caught.value.bucket, caught.value.way,
                caught.value.kind) == (0, way, "mac")

    def test_clean_run_verifies(self):
        protocol = make_protocol()
        for address in range(10):
            protocol.write(address, payload(address))
            protocol.read(address)

    def test_single_slice_replay_detected(self):
        """Replaying ONE way's stale cell (its own MAC still verifies!)
        desynchronizes the merged counter, which the CPU's trusted chain
        catches — the cross-way freshness property of the Split design."""
        import copy

        protocol = make_protocol(seed=8)
        protocol.write(1, payload(1))
        victim = protocol.buffers[0]
        bucket = next(iter(victim._store))
        stale_cell = copy.deepcopy(victim._store[bucket])
        # advance the system so the bucket gets rewritten
        for address in range(200):
            protocol.write(address % 20, payload(address % 256))
        victim._store[bucket] = stale_cell  # adversarial replay, one way
        with pytest.raises(SplitIntegrityError):
            for _ in range(300):
                protocol.read(1)

    def test_counter_slices_reassemble(self):
        """The ways' counter slices merge back to the true write counter."""
        from repro.core.split import _COUNTER_BITS
        from repro.utils.bitops import merge_bits_round_robin

        protocol = make_protocol()
        for address in range(12):
            protocol.write(address, payload(address))
        checked = 0
        for bucket, expected in protocol._expected_counters.items():
            slices = []
            missing = False
            for buffer in protocol.buffers:
                cell = buffer._store.get(bucket)
                if cell is None:
                    missing = True
                    break
                slices.append(cell.counter_slice)
            if missing:
                continue
            assert merge_bits_round_robin(slices, _COUNTER_BITS) == expected
            checked += 1
        assert checked > 0


class TestObliviousness:
    def _shapes(self, operations, seed=2018):
        protocol = make_protocol(levels=6, seed=seed, record_link=True)
        for address, op, value in operations:
            if op is Op.WRITE:
                protocol.access(address, op, payload(value))
            else:
                protocol.access(address, op)
        return protocol.link.shapes()

    def test_link_shape_independent_of_addresses(self):
        hot = [(1, Op.READ, 0)] * 10
        scan = [(address, Op.READ, 0) for address in range(10)]
        assert self._shapes(hot) == self._shapes(scan)

    def test_link_shape_independent_of_operation(self):
        reads = [(index, Op.READ, 0) for index in range(10)]
        writes = [(index, Op.WRITE, index) for index in range(10)]
        assert self._shapes(reads) == self._shapes(writes)

    def test_data_moves_locally_metadata_to_cpu(self):
        """The Split property: FETCH_DATA carries no payload on the channel;
        only metadata and the single requested block cross it."""
        protocol = make_protocol(record_link=True)
        protocol.read(1)
        fetch_data = [event for event in protocol.link.events
                      if event.command is SdimmCommand.FETCH_DATA]
        assert fetch_data
        assert all(event.payload_bytes == 0 for event in fetch_data)
        stash_down = [event for event in protocol.link.events
                      if event.command is SdimmCommand.FETCH_STASH and
                      event.direction == "down"]
        # each way returns only its slice of the one requested block
        assert {event.payload_bytes for event in stash_down} == {8}

    def test_every_way_participates(self):
        protocol = make_protocol(ways=4, record_link=True)
        protocol.read(1)
        targets = {event.sdimm for event in protocol.link.events}
        assert targets == {0, 1, 2, 3}
