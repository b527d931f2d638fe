"""``stamp_pass`` over row segments vs the reference chain over their runs.

A row segment ``(rank, bank, row, lines, counts)`` stands for
``len(counts)`` consecutive runs of one pass on one (rank, bank, row).
:func:`repro.dram.stamp.stamp_pass` walks the DDR constraint chain
once per segment; these tests drive random segment streams through it
and, on a twin channel, through a plain
:meth:`Channel._schedule_run_reference` loop over the unmerged runs —
``schedule_run`` itself stamps through ``stamp_pass``, so only the
reference is an independent chain — and require everything observable
to be identical: every bank, rank, bus and counter field, the
power-state residency, and the burst event list.  The streams run with
refresh enabled (including a refresh forced due mid-pass), ranks
entering passes in precharge standby, and a traced batch — on DDR3
(Table II) timing and on DDR4, whose tCCD_L exceeds tBURST.
"""

import random

import pytest

from repro.config import (DramOrganization, ddr4_organization, ddr4_timing,
                          table2_config, DesignPoint)
from repro.dram.address import DecodedAddress
from repro.dram.channel import Channel
from repro.dram.commands import PowerState
from repro.dram.stamp import stamp_pass
from repro.obs.tracer import CollectingTracer

TIMINGS = {
    "ddr3-table2": (table2_config(DesignPoint.FREECURSIVE).timing,
                    DramOrganization(), 2),
    "ddr4": (ddr4_timing(), ddr4_organization(), 1),
}


def _channels(name):
    timing, organization, scale = TIMINGS[name]
    tracer = CollectingTracer()
    fast = Channel(timing, organization, scale=scale, refresh_enabled=True,
                   name="ch")
    slow = Channel(timing, organization, scale=scale, refresh_enabled=True,
                   name="ch", tracer=tracer)
    return fast, slow, tracer


def _random_pass(rng, ranks, banks, row_lines):
    """A segment stream and the same pass as ``(address, count)`` runs."""
    segments = []
    runs = []
    for _ in range(rng.randint(1, 10)):
        rank = rng.randrange(ranks)
        bank = rng.randrange(banks)
        row = rng.randrange(3)
        counts = []
        column = rng.randrange(row_lines // 2)
        for _ in range(rng.randint(1, 4)):
            count = rng.randint(1, 9)
            if column + count > row_lines:
                break
            counts.append(count)
            runs.append((DecodedAddress(rank, bank, row, column), count))
            column += count + rng.randint(0, 6)
        if counts:
            segments.append((rank, bank, row, sum(counts), tuple(counts)))
    return segments, runs


def _state(channel):
    ranks = []
    for rank in channel.ranks:
        ranks.append((
            [(bank.open_row, bank.ready_activate, bank.ready_cas,
              bank.ready_precharge) for bank in rank.banks],
            tuple(rank._act_history), rank._last_act_time,
            rank._next_refresh_due, rank.power_state, rank._state_since,
            dict(rank.state_residency), rank.refresh_count,
            rank.power_down_exits))
    return (ranks, channel._bus_free, channel._last_bus_rank,
            channel._last_bus_was_write, dict(channel._write_to_read_ready),
            dict(channel._last_group_cas), channel.counters.as_dict())


def _events(events):
    return [(event.kind, event.name, event.category, event.lane,
             event.start, event.duration, sorted(event.args.items()))
            for event in events]


@pytest.mark.parametrize("timing_name", sorted(TIMINGS))
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_stamp_pass_equals_schedule_run_loop(timing_name, seed):
    rng = random.Random(seed)
    fast, slow, tracer = _channels(timing_name)
    ranks = len(fast.ranks)
    banks = len(fast.ranks[0].banks)
    row_lines = fast._row_lines
    trefi = fast.timing.trefi
    batch = []
    now = 0
    refreshes_forced = 0
    while now < 4 * trefi:
        segments, runs = _random_pass(rng, ranks, banks, row_lines)
        is_write = rng.random() < 0.5
        earliest = now + rng.randrange(0, 400)
        if rng.random() < 0.2:
            # a rank re-enters precharge standby before the pass
            rank_index = rng.randrange(ranks)
            for channel in (fast, slow):
                channel.ranks[rank_index]._transition(
                    PowerState.PRECHARGE_STANDBY, earliest)
        if len(segments) > 1 and rng.random() < 0.3:
            # a refresh due on a rank the pass first touches mid-pass
            rank_index = segments[-1][0]
            for channel in (fast, slow):
                rank = channel.ranks[rank_index]
                rank._next_refresh_due = min(rank._next_refresh_due,
                                             earliest)
            refreshes_forced += 1
        traced = rng.random() < 0.7
        slots = None
        part = batch
        if traced and rng.random() < 0.3:
            # a multi-channel caller places events by emission slot
            part = [None] * len(runs)
            slots = tuple(reversed(range(len(runs))))
        fast_end = stamp_pass(fast, segments, is_write, earliest,
                              part if traced else None, slots)
        tracer.enabled = traced
        slow_end = 0
        for address, count in runs:
            timing = slow._schedule_run_reference(address, count, is_write,
                                                  earliest)
            slow_end = max(slow_end, timing.data_end)
        tracer.enabled = True
        if slots is not None:
            batch.extend(reversed(part))
        assert fast_end == slow_end
        assert _state(fast) == _state(slow)
        now = max(slow_end, earliest)
    assert refreshes_forced > 0
    assert sum(rank.refresh_count for rank in fast.ranks) > 0
    for channel in (fast, slow):
        channel.finalize(now)
    assert _state(fast) == _state(slow)
    assert _events(batch) == _events(tracer.events)
    assert len(batch) > 0


def test_segment_is_one_run_of_the_summed_length():
    """Merged sub-runs cost exactly one run's hits, lines and busy time."""
    fast, slow, _ = _channels("ddr3-table2")
    end = stamp_pass(fast, [(0, 0, 7, 12, (5, 4, 3))], False, 100)
    timing = slow._schedule_run_reference(DecodedAddress(0, 0, 7, 0), 12,
                                          False, 100)
    assert end == timing.data_end
    assert fast.counters.as_dict() == slow.counters.as_dict()
