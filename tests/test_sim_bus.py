"""Tests for the backfilling link bus."""

import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.bus import LinkBus


class TestLinkBusBasics:
    def test_block_occupies_burst_plus_command(self):
        bus = LinkBus(burst_cycles=8, command_cycles=1)
        start, end = bus.reserve_block(0)
        assert (start, end) == (0, 9)

    def test_serial_when_contended(self):
        bus = LinkBus(8)
        bus.reserve_block(0)
        start, end = bus.reserve_block(0)
        assert start == 9

    def test_lines_back_to_back(self):
        bus = LinkBus(8)
        start, end = bus.reserve_lines(0, 5)
        assert end - start == 40

    def test_zero_lines_is_free(self):
        bus = LinkBus(8)
        assert bus.reserve_lines(100, 0) == (100, 100)
        assert bus.busy_cycles == 0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            LinkBus(0)
        with pytest.raises(ValueError):
            LinkBus(8).reserve_lines(0, -1)

    def test_counters(self):
        bus = LinkBus(8)
        bus.reserve_block(0)
        bus.reserve_lines(0, 3)
        bus.command_slot(0)
        assert bus.block_transfers == 1
        assert bus.line_transfers == 3
        assert bus.command_slots == 1
        assert bus.total_transfers == 4


class TestBackfill:
    def test_gap_before_future_reservation_usable(self):
        """A response reserved far ahead must not block an idle bus now."""
        bus = LinkBus(8)
        bus.reserve_block(1000)          # future response
        start, end = bus.reserve_block(0)  # new request, bus idle now
        assert start == 0

    def test_small_gap_respected(self):
        bus = LinkBus(8)
        bus.reserve_block(0)       # [0, 9)
        bus.reserve_block(12)      # [12, 21)
        # a 9-cycle block does not fit in [9, 12); lands after 21
        start, _ = bus.reserve_block(5)
        assert start == 21

    def test_exact_fit_gap(self):
        bus = LinkBus(8, command_cycles=1)
        bus.reserve_block(0)       # [0, 9)
        bus.reserve_block(18)      # [18, 27)
        start, end = bus.reserve_block(0)
        assert (start, end) == (9, 18)

    def test_free_at_reflects_last_interval(self):
        bus = LinkBus(8)
        bus.reserve_block(100)
        assert bus.free_at == 109

    def test_advance_prunes_but_preserves_future(self):
        bus = LinkBus(8)
        bus.reserve_block(0)
        bus.reserve_block(10_000)
        bus.advance(5_000)
        # the future reservation still blocks
        start, _ = bus.reserve_block(10_000)
        assert start == 10_009

    def test_many_backfills_keep_order_free(self):
        bus = LinkBus(4)
        ends = []
        for index in range(20):
            _, end = bus.reserve_block(index * 100)
            ends.append(end)
        # widely spaced requests never queue
        assert all(end - index * 100 == 5 for index, end in enumerate(ends))


class _WholeListBus(LinkBus):
    """The former allocator: copy the tail to scan, re-merge on insert."""

    def advance(self, now):
        self._prune_before = max(self._prune_before, now)
        if self._busy and self._busy[0][1] < self._prune_before:
            self._busy = [interval for interval in self._busy
                          if interval[1] >= self._prune_before]

    def _find_gap(self, earliest, duration):
        candidate = earliest
        index = bisect.bisect_right(self._busy, (candidate, candidate)) - 1
        index = max(index, 0)
        for busy_start, busy_end in self._busy[index:]:
            if busy_end <= candidate:
                continue
            if busy_start - candidate >= duration:
                return candidate
            candidate = max(candidate, busy_end)
        return candidate

    def _insert(self, start, end):
        index = bisect.bisect_left(self._busy, (start, end))
        self._busy.insert(index, (start, end))
        merged = []
        for interval in self._busy:
            if merged and interval[0] <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], interval[1]))
            else:
                merged.append(interval)
        self._busy = merged


_BUS_OPS = st.lists(st.one_of(
    st.tuples(st.just("block"), st.integers(-5, 400)),
    st.tuples(st.just("lines"), st.integers(-5, 400), st.integers(0, 6)),
    st.tuples(st.just("stall"), st.integers(-5, 400), st.integers(1, 30)),
    st.tuples(st.just("advance"), st.integers(0, 400)),
), max_size=60)


class TestInPlaceAllocation:
    @settings(max_examples=300, deadline=None)
    @given(burst=st.integers(1, 9), command=st.integers(0, 3), ops=_BUS_OPS)
    def test_matches_whole_list_merge(self, burst, command, ops):
        bus = LinkBus(burst, command)
        reference = _WholeListBus(burst, command)
        for op in ops:
            if op[0] == "block":
                results = [b.reserve_block(op[1]) for b in (bus, reference)]
            elif op[0] == "lines":
                results = [b.reserve_lines(op[1], op[2])
                           for b in (bus, reference)]
            elif op[0] == "stall":
                results = [b.inject_stall(op[1], op[2])
                           for b in (bus, reference)]
            else:
                results = [b.advance(op[1]) for b in (bus, reference)]
            assert results[0] == results[1]
            assert bus._busy == reference._busy
            assert bus.free_at == reference.free_at
        for field in ("block_transfers", "line_transfers", "busy_cycles",
                      "stall_cycles", "stalls_injected"):
            assert getattr(bus, field) == getattr(reference, field)

    def test_gap_fill_merges_both_neighbours(self):
        bus = LinkBus(8, command_cycles=1)
        bus.reserve_block(0)       # [0, 9)
        bus.reserve_block(18)      # [18, 27)
        bus.reserve_block(0)       # fills [9, 18) exactly
        assert bus._busy == [(0, 27)]
