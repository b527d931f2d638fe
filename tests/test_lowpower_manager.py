"""Tests for the rank power manager (Section III-E)."""

from repro.config import DramOrganization, DramTiming
from repro.core.lowpower import RankPowerManager
from repro.dram.channel import Channel
from repro.dram.commands import PowerState

TIMING = DramTiming()


def make_channel():
    return Channel(TIMING, DramOrganization(), scale=1)


class TestRankPowerManager:
    def test_all_ranks_parked_at_start(self):
        channel = make_channel()
        RankPowerManager(channel, enabled=True)
        assert all(rank.power_state is PowerState.POWER_DOWN
                   for rank in channel.ranks)

    def test_disabled_manager_touches_nothing(self):
        channel = make_channel()
        manager = RankPowerManager(channel, enabled=False)
        assert all(rank.power_state is PowerState.PRECHARGE_STANDBY
                   for rank in channel.ranks)
        assert manager.prepare_access(3, 500) == 500

    def test_wake_pays_exit_latency(self):
        channel = make_channel()
        manager = RankPowerManager(channel, enabled=True)
        ready = manager.prepare_access(2, 100)
        assert ready == 100 + TIMING.txp
        assert channel.ranks[2].power_state is PowerState.PRECHARGE_STANDBY

    def test_same_rank_is_free(self):
        channel = make_channel()
        manager = RankPowerManager(channel, enabled=True)
        manager.prepare_access(2, 100)
        assert manager.prepare_access(2, 500) == 500
        assert manager.switches == 1

    def test_switch_parks_previous_rank(self):
        channel = make_channel()
        manager = RankPowerManager(channel, enabled=True)
        manager.prepare_access(2, 100)
        manager.prepare_access(5, 1000)
        assert channel.ranks[2].power_state is PowerState.POWER_DOWN
        assert channel.ranks[5].power_state is PowerState.PRECHARGE_STANDBY
        assert manager.switches == 2
        assert manager.active_rank == 5

    def test_finish_parks_everything(self):
        channel = make_channel()
        manager = RankPowerManager(channel, enabled=True)
        manager.prepare_access(1, 100)
        manager.finish(2000)
        assert channel.ranks[1].power_state is PowerState.POWER_DOWN
        assert manager.active_rank is None

    def test_residency_accounting_accumulates_power_down(self):
        channel = make_channel()
        manager = RankPowerManager(channel, enabled=True)
        manager.prepare_access(0, 0)
        manager.prepare_access(1, 10_000)   # parks rank 0
        for rank in channel.ranks:
            rank.finalize(20_000)
        parked = channel.ranks[0].state_residency[PowerState.POWER_DOWN]
        assert parked >= 9_000

    def test_exit_counted(self):
        channel = make_channel()
        manager = RankPowerManager(channel, enabled=True)
        manager.prepare_access(0, 0)
        assert channel.ranks[0].power_down_exits == 1
