"""Tests for bank/rank state machines and the channel scheduler."""

import pytest

from repro.config import DramOrganization, DramTiming
from repro.dram.address import DecodedAddress
from repro.dram.bank import Bank, ScaledTiming
from repro.dram.channel import Channel
from repro.dram.commands import PowerState, RowBufferOutcome
from repro.dram.rank import Rank

TIMING = DramTiming()
SCALE = 1  # test in raw memory cycles for readable arithmetic


def make_channel(**kwargs):
    return Channel(TIMING, DramOrganization(), scale=SCALE, **kwargs)


def addr(rank=0, bank=0, row=0, column=0):
    return DecodedAddress(rank=rank, bank=bank, row=row, column=column)


class TestBank:
    def test_classify_transitions(self):
        bank = Bank(ScaledTiming(TIMING, 1))
        assert bank.classify(5) is RowBufferOutcome.MISS
        bank.activate(0, 5)
        assert bank.classify(5) is RowBufferOutcome.HIT
        assert bank.classify(6) is RowBufferOutcome.CONFLICT

    def test_activate_sets_cas_ready(self):
        bank = Bank(ScaledTiming(TIMING, 1))
        bank.activate(100, 3)
        assert bank.ready_cas == 100 + TIMING.trcd
        assert bank.ready_precharge == 100 + TIMING.tras

    def test_precharge_closes_row(self):
        bank = Bank(ScaledTiming(TIMING, 1))
        bank.activate(0, 3)
        bank.precharge(50)
        assert bank.open_row is None
        assert bank.ready_activate >= 50 + TIMING.trp

    def test_scale_multiplies_parameters(self):
        scaled = ScaledTiming(TIMING, 2)
        assert scaled.trcd == 2 * TIMING.trcd
        assert scaled.tburst == 2 * TIMING.tburst

    def test_scale_rejects_zero(self):
        with pytest.raises(ValueError):
            ScaledTiming(TIMING, 0)


class TestRank:
    def test_tfaw_limits_activates(self):
        rank = Rank(ScaledTiming(TIMING, 1), banks_per_rank=8)
        times = []
        candidate = 0
        for _ in range(5):
            issue = rank.earliest_activate(candidate)
            rank.record_activate(issue)
            times.append(issue)
            candidate = issue + 1
        # the fifth ACT must wait until tFAW after the first
        assert times[4] >= times[0] + TIMING.tfaw

    def test_trrd_spacing(self):
        rank = Rank(ScaledTiming(TIMING, 1), banks_per_rank=8)
        first = rank.earliest_activate(0)
        rank.record_activate(first)
        second = rank.earliest_activate(first)
        assert second >= first + TIMING.trrd

    def test_power_down_and_wake(self):
        rank = Rank(ScaledTiming(TIMING, 1), banks_per_rank=8)
        rank.enter_power_down(100)
        assert rank.power_state is PowerState.POWER_DOWN
        ready = rank.wake(200)
        assert ready == 200 + TIMING.txp
        assert rank.power_state is PowerState.PRECHARGE_STANDBY
        assert rank.power_down_exits == 1

    def test_wake_when_awake_is_free(self):
        rank = Rank(ScaledTiming(TIMING, 1), banks_per_rank=8)
        assert rank.wake(50) == 50

    def test_residency_accounting(self):
        rank = Rank(ScaledTiming(TIMING, 1), banks_per_rank=8)
        rank.enter_power_down(100)
        rank.wake(600)
        rank.finalize(1000)
        assert rank.state_residency[PowerState.POWER_DOWN] >= 500
        total = sum(rank.state_residency.values())
        assert total >= 1000

    def test_refresh_blocks_banks(self):
        timing = ScaledTiming(TIMING, 1)
        rank = Rank(timing, banks_per_rank=8, refresh_enabled=True)
        ready = rank.maybe_refresh(timing.trefi + 1)
        assert ready >= timing.trefi + 1 + timing.trfc
        assert rank.refresh_count == 1

    def test_refresh_disabled_is_noop(self):
        rank = Rank(ScaledTiming(TIMING, 1), banks_per_rank=8)
        assert rank.maybe_refresh(10**9) == 10**9
        assert rank.refresh_count == 0


class TestChannel:
    def test_first_access_is_row_miss(self):
        channel = make_channel()
        timing = channel.schedule_access(addr(), False, 0)
        assert timing.outcome is RowBufferOutcome.MISS
        # ACT at 0, CAS at tRCD, data tCL later
        assert timing.data_start == TIMING.trcd + TIMING.tcl

    def test_row_hit_is_cas_only(self):
        channel = make_channel()
        first = channel.schedule_access(addr(column=0), False, 0)
        second = channel.schedule_access(addr(column=1), False,
                                         first.cas_issue)
        assert second.outcome is RowBufferOutcome.HIT
        # back-to-back hits stream on the data bus
        assert second.data_start - first.data_start >= TIMING.tburst

    def test_row_conflict_pays_precharge(self):
        channel = make_channel()
        first = channel.schedule_access(addr(row=0), False, 0)
        conflict = channel.schedule_access(addr(row=1), False, first.data_end)
        assert conflict.outcome is RowBufferOutcome.CONFLICT
        assert conflict.data_start >= first.data_end + TIMING.trp

    def test_bank_parallelism_overlaps_prep(self):
        channel = make_channel()
        first = channel.schedule_access(addr(bank=0), False, 0)
        second = channel.schedule_access(addr(bank=1), False, 0)
        # second bank's ACT overlaps the first's data; bursts serialize
        assert second.data_start >= first.data_end
        assert second.data_start < first.data_end + TIMING.tcl

    def test_rank_switch_pays_trtrs(self):
        channel = make_channel()
        first = channel.schedule_access(addr(rank=0), False, 0)
        second = channel.schedule_access(addr(rank=1), False, 0)
        assert second.data_start >= first.data_end + TIMING.trtrs

    def test_write_to_read_turnaround_same_rank(self):
        channel = make_channel()
        write = channel.schedule_access(addr(column=0), True, 0)
        read = channel.schedule_access(addr(column=1), False, write.cas_issue)
        assert read.cas_issue >= write.data_end + TIMING.twtr

    def test_counters_track_events(self):
        channel = make_channel()
        channel.schedule_access(addr(column=0), False, 0)
        channel.schedule_access(addr(column=1), False, 0)
        channel.schedule_access(addr(column=2), True, 0)
        counts = channel.counters.as_dict()
        assert counts["reads"] == 2
        assert counts["writes"] == 1
        assert counts["activates"] == 1
        assert channel.counters.row_hit_rate == pytest.approx(2 / 3)

    def test_powered_down_rank_wakes_on_access(self):
        channel = make_channel()
        channel.ranks[0].enter_power_down(0)
        timing = channel.schedule_access(addr(), False, 1000)
        assert timing.data_start >= 1000 + TIMING.txp + TIMING.trcd + TIMING.tcl

    def test_finalize_closes_residency(self):
        channel = make_channel()
        channel.schedule_access(addr(), False, 0)
        channel.finalize(10_000)
        residency = channel.ranks[0].state_residency
        assert sum(residency.values()) >= 10_000
