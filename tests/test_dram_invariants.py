"""Property tests for DRAM timing invariants under random access streams.

These guard the event-driven model's physical sanity: data bursts on one
channel never overlap, CAS always trails ACT by tRCD, run scheduling is
burst-count-exact, and the coalesced run path agrees with per-line
scheduling on total bus occupancy.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DramOrganization, DramTiming
from repro.dram.address import DecodedAddress
from repro.dram.channel import Channel

TIMING = DramTiming()


def make_channel():
    return Channel(TIMING, DramOrganization(), scale=1)


address_strategy = st.builds(
    DecodedAddress,
    rank=st.integers(0, 7),
    bank=st.integers(0, 7),
    row=st.integers(0, 63),
    column=st.integers(0, 127),
)


class TestBurstInvariants:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(address_strategy, st.booleans(),
                              st.integers(0, 2000)),
                    min_size=2, max_size=60))
    def test_data_bursts_never_overlap(self, accesses):
        """The data bus is a serial resource: bursts must be disjoint."""
        channel = make_channel()
        intervals = []
        for address, is_write, earliest in accesses:
            timing = channel.schedule_access(address, is_write, earliest)
            intervals.append((timing.data_start, timing.data_end))
        intervals.sort()
        for (_, first_end), (second_start, _) in zip(intervals,
                                                     intervals[1:]):
            assert second_start >= first_end

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(address_strategy, st.booleans()),
                    min_size=1, max_size=40))
    def test_monotone_commitment(self, accesses):
        """With a fixed earliest time, CAS issue times never decrease —
        the channel commits state in schedule order."""
        channel = make_channel()
        last_data_start = -1
        for address, is_write in accesses:
            timing = channel.schedule_access(address, is_write, 0)
            assert timing.data_start > last_data_start
            last_data_start = timing.data_start

    @settings(max_examples=30, deadline=None)
    @given(address_strategy, st.integers(1, 100))
    def test_run_burst_count_exact(self, address, count):
        """A run of N lines occupies exactly N bursts of bus time."""
        channel = make_channel()
        columns = channel.organization.row_bytes // 64
        count = min(count, columns - address.column)
        timing = channel.schedule_run(address, count, False, 0)
        assert timing.data_end - timing.data_start == count * TIMING.tburst
        assert channel.counters.reads == count

    def test_run_rejects_row_crossing(self):
        channel = make_channel()
        with pytest.raises(ValueError):
            channel.schedule_run(DecodedAddress(0, 0, 0, 120), 20, False, 0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 63), st.integers(1, 64), st.booleans())
    def test_run_equivalent_to_lines_in_bus_time(self, row, count,
                                                 is_write):
        """Coalesced runs must consume the same bus time as per-line
        scheduling — the optimization may not change the physics.  The
        per-line side runs the reference chain: ``schedule_access`` and
        ``schedule_run`` share one implementation."""
        base = DecodedAddress(rank=0, bank=0, row=row, column=0)
        run_channel = make_channel()
        run_timing = run_channel.schedule_run(base, count, is_write, 0)

        line_channel = make_channel()
        last = None
        for column in range(count):
            address = DecodedAddress(rank=0, bank=0, row=row, column=column)
            last = line_channel._schedule_run_reference(address, 1,
                                                        is_write, 0)
        assert run_timing.data_end == last.data_end
        assert (run_channel.counters.busy_cycles ==
                line_channel.counters.busy_cycles)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(address_strategy, min_size=1, max_size=30))
    def test_counters_match_operations(self, addresses):
        channel = make_channel()
        for address in addresses:
            channel.schedule_access(address, False, 0)
        counters = channel.counters
        assert counters.reads == len(addresses)
        assert (counters.row_hits + counters.row_misses +
                counters.row_conflicts) == len(addresses)
        assert counters.activates == (counters.row_misses +
                                      counters.row_conflicts)


class TestActPacing:
    def test_cas_trails_act_by_trcd(self):
        channel = make_channel()
        timing = channel.schedule_access(DecodedAddress(0, 0, 5, 0),
                                         False, 1000)
        # row miss: ACT at 1000, CAS no earlier than 1000 + tRCD
        assert timing.cas_issue >= 1000 + TIMING.trcd

    def test_many_banks_one_rank_respect_tfaw(self):
        """Eight immediate ACTs to one rank must span >= 2 tFAW windows."""
        channel = make_channel()
        timings = [channel.schedule_access(DecodedAddress(0, bank, 1, 0),
                                           False, 0)
                   for bank in range(8)]
        first_cas = timings[0].cas_issue
        last_cas = timings[-1].cas_issue
        assert last_cas - first_cas >= TIMING.tfaw
