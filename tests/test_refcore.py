"""Differential tests: optimized hot-path cores vs their references.

The optimized ``Channel.schedule_run`` and ``Channel.schedule_access``
(both stamped through ``repro.dram.stamp.stamp_pass``),
``Rank.note_active`` and the tuple-based event scheduler must be
*bit-identical* in behaviour to the
straightforward reference implementations they replaced
(``REPRO_REFERENCE_CORE=1`` selects the references, unmemoized; see
``repro.utils.memo``).  These tests drive both sides with the same
randomized command streams and compare every observable — returned
timings, counters, bus state, power-state residency — which is a much
tighter net than the end-to-end golden masters alone.
"""

import os
import subprocess
import sys

import pytest

from repro.config import DramOrganization, DramTiming
from repro.dram.address import DecodedAddress
from repro.dram.bank import ScaledTiming
from repro.dram.channel import Channel
from repro.dram.commands import PowerState
from repro.dram.rank import Rank
from repro.utils.rng import DeterministicRng

TIMING = DramTiming()
ORGANIZATION = DramOrganization()

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def random_runs(seed: int, count: int):
    """A reproducible stream of valid schedule_run argument tuples."""
    rng = DeterministicRng(seed, "refcore-test")
    columns = ORGANIZATION.row_bytes // 64
    ranks = ORGANIZATION.dimms_per_channel * ORGANIZATION.ranks_per_dimm
    now = 0
    for _ in range(count):
        run_len = rng.randint(1, 16)
        address = DecodedAddress(
            rank=rng.randint(0, ranks - 1),
            bank=rng.randint(0, ORGANIZATION.banks_per_rank - 1),
            row=rng.randint(0, 511),
            column=rng.randint(0, columns - run_len))
        now += rng.randint(0, 200)
        yield address, run_len, rng.random() < 0.5, now


def assert_matches_reference(runs, refresh=False, parked=False):
    """Both entry points against ``_schedule_run_reference``.

    ``schedule_run`` takes every run whole and ``schedule_access`` takes
    its first line, each on a fresh channel beside a reference twin;
    returned timings (outcome included), counters, bus state and
    power-state residency must all match.
    """
    runs = list(runs)
    for one_line in (False, True):
        optimized = Channel(TIMING, ORGANIZATION, scale=2,
                            refresh_enabled=refresh)
        reference = Channel(TIMING, ORGANIZATION, scale=2,
                            refresh_enabled=refresh)
        if parked:
            for channel in (optimized, reference):
                for rank in channel.ranks:
                    rank.enter_power_down(0)
        for address, count, is_write, earliest in runs:
            if one_line:
                count = 1
                fast = optimized.schedule_access(address, is_write, earliest)
            else:
                fast = optimized.schedule_run(address, count, is_write,
                                              earliest)
            slow = reference._schedule_run_reference(address, count,
                                                     is_write, earliest)
            assert fast == slow
        assert optimized.counters.as_dict() == reference.counters.as_dict()
        assert optimized.bus_free_at == reference.bus_free_at
        residency = [rank.state_residency for rank in optimized.ranks]
        assert residency == [rank.state_residency
                             for rank in reference.ranks]


class TestScheduleRunDifferential:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("refresh", [False, True])
    def test_matches_reference_on_random_streams(self, seed, refresh):
        assert_matches_reference(random_runs(seed, 600), refresh=refresh)

    def test_matches_reference_after_power_down(self):
        assert_matches_reference(random_runs(7, 200), parked=True)

    def test_rejects_bad_runs_like_reference(self):
        channel = Channel(TIMING, ORGANIZATION, scale=2)
        address = DecodedAddress(rank=0, bank=0, row=0, column=0)
        with pytest.raises(ValueError):
            channel.schedule_run(address, 0, False, 0)
        with pytest.raises(ValueError):
            channel._schedule_run_reference(address, 0, False, 0)
        columns = ORGANIZATION.row_bytes // 64
        edge = DecodedAddress(rank=0, bank=0, row=0, column=columns - 1)
        with pytest.raises(ValueError):
            channel.schedule_run(edge, 2, False, 0)
        with pytest.raises(ValueError):
            channel._schedule_run_reference(edge, 2, False, 0)


class TestNoteActiveDifferential:
    def make_rank(self):
        return Rank(ScaledTiming(TIMING, 2), ORGANIZATION.banks_per_rank)

    def test_open_row_transitions_match(self):
        fast, slow = self.make_rank(), self.make_rank()
        for rank in (fast, slow):
            rank.banks[0].activate(10, 3)
        fast.note_active(50)
        slow.note_activity(50)
        assert fast.power_state == slow.power_state
        assert fast.state_residency == slow.state_residency

    def test_parked_rank_left_alone(self):
        fast, slow = self.make_rank(), self.make_rank()
        for rank in (fast, slow):
            rank.enter_power_down(5)
        fast.note_active(50)
        slow.note_activity(50)
        assert fast.power_state is PowerState.POWER_DOWN
        assert fast.power_state == slow.power_state
        assert fast.state_residency == slow.state_residency

    def test_repeated_calls_are_idempotent(self):
        fast, slow = self.make_rank(), self.make_rank()
        for rank in (fast, slow):
            rank.banks[2].activate(0, 1)
        for now in (10, 20, 30):
            fast.note_active(now)
            slow.note_activity(now)
        assert fast.power_state == slow.power_state
        assert fast.state_residency == slow.state_residency


class TestReferenceCoreEndToEnd:
    """REPRO_REFERENCE_CORE=1 (fresh interpreter) is cycle-identical."""

    def run_cycles(self, env_extra):
        code = (
            "from repro.config import small_config, DesignPoint\n"
            "from repro.sim.system import run_simulation\n"
            "r = run_simulation(small_config(DesignPoint.FREECURSIVE),\n"
            "                   'mcf', trace_length=300)\n"
            "print(r.execution_cycles)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env.update(env_extra)
        output = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        return int(output.stdout)

    def test_reference_env_matches_optimized(self):
        optimized = self.run_cycles({})
        reference = self.run_cycles({"REPRO_REFERENCE_CORE": "1"})
        assert optimized == reference
