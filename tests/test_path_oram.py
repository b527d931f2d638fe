"""Functional tests for Path ORAM: correctness, invariants, obliviousness."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.audit import bucket_touches
from repro.obs.tracer import CollectingTracer
from repro.oram.path_oram import Op, PathOram, StashOverflowError
from repro.utils.rng import DeterministicRng


def make_oram(levels=6, seed=1, **kwargs):
    defaults = dict(blocks_per_bucket=4, block_bytes=16, stash_capacity=200)
    defaults.update(kwargs)
    return PathOram(levels=levels, rng=DeterministicRng(seed, "oram"),
                    **defaults)


def payload(value, size=16):
    return value.to_bytes(4, "little") * (size // 4)


class TestCorrectness:
    def test_read_after_write(self):
        oram = make_oram()
        oram.access(5, Op.WRITE, payload(42))
        assert oram.access(5, Op.READ) == payload(42)

    def test_unwritten_reads_zero(self):
        oram = make_oram()
        assert oram.access(9, Op.READ) == bytes(16)

    def test_overwrite(self):
        oram = make_oram()
        oram.access(5, Op.WRITE, payload(1))
        oram.access(5, Op.WRITE, payload(2))
        assert oram.access(5, Op.READ) == payload(2)

    def test_write_returns_previous_value(self):
        oram = make_oram()
        oram.access(5, Op.WRITE, payload(1))
        previous = oram.access(5, Op.WRITE, payload(2))
        assert previous == payload(1)

    def test_many_blocks_independent(self):
        oram = make_oram()
        for address in range(20):
            oram.access(address, Op.WRITE, payload(address + 100))
        for address in range(20):
            assert oram.access(address, Op.READ) == payload(address + 100)

    def test_write_requires_data(self):
        oram = make_oram()
        with pytest.raises(ValueError):
            oram.access(1, Op.WRITE)

    def test_write_validates_size(self):
        oram = make_oram()
        with pytest.raises(ValueError):
            oram.access(1, Op.WRITE, b"tiny")

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 31), st.integers(0, 255)),
                    min_size=1, max_size=60))
    def test_matches_reference_dict(self, operations):
        """Property: ORAM behaves exactly like a plain dict of blocks."""
        oram = make_oram(levels=5)
        reference = {}
        for address, value in operations:
            oram.access(address, Op.WRITE, payload(value))
            reference[address] = payload(value)
        for address, expected in reference.items():
            assert oram.access(address, Op.READ) == expected


class TestInvariants:
    def test_block_on_path_or_stash(self):
        oram = make_oram()
        for address in range(30):
            oram.access(address, Op.WRITE, payload(address))
        for address in range(30):
            assert oram.invariant_block_on_path_or_stash(address)

    def test_stash_stays_bounded(self):
        oram = make_oram(levels=7)
        rng = DeterministicRng(3, "w")
        for _ in range(600):
            oram.access(rng.randrange(200), Op.WRITE, payload(1))
        # Z=4 keeps the stash tiny relative to the 200-block bound
        assert oram.stash.peak_occupancy < 100

    def test_access_count_tracks(self):
        oram = make_oram()
        oram.access(1, Op.READ)
        oram.access(2, Op.WRITE, payload(2))
        oram.dummy_access()
        assert oram.access_count == 3
        assert oram.dummy_access_count == 1

    def test_remap_on_every_access(self):
        oram = make_oram(levels=10)
        oram.access(1, Op.WRITE, payload(1))
        leaves = set()
        for _ in range(30):
            oram.access(1, Op.READ)
            leaves.add(oram.posmap.lookup(1))
        assert len(leaves) > 10

    def test_stash_overflow_raises_without_eviction(self):
        oram = make_oram(levels=2, stash_capacity=2,
                         background_eviction=False)
        with pytest.raises(StashOverflowError):
            for address in range(64):
                oram.access(address, Op.WRITE, payload(address))

    def test_background_eviction_recovers(self):
        oram = make_oram(levels=6, stash_capacity=30,
                         background_eviction=True)
        for address in range(120):
            oram.access(address % 60, Op.WRITE, payload(address))
        # pressure may or may not arise; the run must simply stay legal
        assert len(oram.stash) <= 30 or oram.background_evictions > 0


class TestObliviousness:
    def _traced(self, levels=6, seed=1):
        """An ORAM and the bucket touches its tracer records on ``main``."""
        tracer = CollectingTracer()
        oram = make_oram(levels=levels, seed=seed, tracer=tracer)
        return oram, lambda: bucket_touches(tracer.events, "main")

    def _trace_shape(self, operations, seed=7):
        """Bucket-level trace for a given logical access sequence."""
        oram, touches = self._traced(seed=seed)
        for address, op, value in operations:
            if op is Op.WRITE:
                oram.access(address, op, payload(value))
            else:
                oram.access(address, op)
        return touches()

    def test_trace_length_depends_only_on_count(self):
        """Same number of accesses => same trace length, any addresses."""
        hot = [(1, Op.READ, 0)] * 12
        scan = [(address, Op.READ, 0) for address in range(12)]
        writes = [(address, Op.WRITE, address) for address in range(12)]
        lengths = {len(self._trace_shape(sequence))
                   for sequence in (hot, scan, writes)}
        assert len(lengths) == 1

    def test_trace_structure_is_paths(self):
        """Every access is exactly one path read then one path write."""
        oram, touches = self._traced()
        oram.access(3, Op.READ)
        events = touches()
        assert len(events) == 2 * 6
        assert [kind for kind, _ in events] == ["read"] * 6 + ["write"] * 6
        read_buckets = [bucket for _, bucket in events[:6]]
        write_buckets = [bucket for _, bucket in events[6:]]
        assert read_buckets == write_buckets
        assert read_buckets[0] == 0  # root first

    def test_reads_and_writes_indistinguishable(self):
        """A read and a write to the same fresh ORAM produce path accesses
        of identical structure (the leaf is random either way)."""
        read_trace = self._trace_shape([(5, Op.READ, 0)])
        write_trace = self._trace_shape([(5, Op.WRITE, 9)])
        assert [kind for kind, _ in read_trace] == \
            [kind for kind, _ in write_trace]

    def test_repeated_access_touches_fresh_paths(self):
        """Temporal locality must not show up as repeated identical paths."""
        oram, touches = self._traced(levels=10)
        oram.access(1, Op.WRITE, payload(1))
        paths = []
        for _ in range(20):
            start = len(touches())
            oram.access(1, Op.READ)
            paths.append(tuple(bucket for _, bucket
                               in touches()[start:start + 10]))
        assert len(set(paths)) > 10

    def test_dummy_access_indistinguishable(self):
        oram, dummy_touches = self._traced()
        oram.dummy_access()
        real, real_touches = self._traced()
        real.access(1, Op.READ)
        assert [kind for kind, _ in dummy_touches()] == \
            [kind for kind, _ in real_touches()]
