"""Tests for the event-driven memory backends."""

import dataclasses

import pytest

from repro.config import DesignPoint, small_config, table2_config
from repro.obs.tracer import CollectingTracer
from repro.sim.events import EventQueue
from repro.sim.system import build_backend
from repro.utils import memo
from repro.utils.memo import CoreSelection
from repro.utils.rng import DeterministicRng


def completed(backend, events, addresses, now=0):
    """Submit reads; return their completion times in submit order."""
    results = {}
    for index, address in enumerate(addresses):
        backend.submit(address, now, False,
                       lambda t, i=index: results.__setitem__(i, t))
    events.run()
    return [results[index] for index in range(len(addresses))]


class TestNonSecureBackend:
    def make(self):
        events = EventQueue()
        return build_backend(table2_config(DesignPoint.NONSECURE,
                                           channels=2), events), events

    def test_read_completes(self):
        backend, events = self.make()
        times = completed(backend, events, [0])
        assert times[0] > 0

    def test_channel_interleaving(self):
        backend, events = self.make()
        completed(backend, events, [0, 1])
        total = sum(channel.counters.accesses
                    for channel in backend.channels)
        assert total == 2
        assert all(channel.counters.accesses == 1
                   for channel in backend.channels)

    def test_row_hits_for_sequential(self):
        backend, events = self.make()
        completed(backend, events, [0, 2, 4, 6])
        channel = backend.channels[0]
        assert channel.counters.row_hits >= 1

    def test_posted_writes_do_not_callback(self):
        backend, events = self.make()
        backend.submit(0, 0, True)
        events.run()
        assert backend.channels[0].counters.writes == 1

    def test_bank_parallelism_beats_serial(self):
        backend, events = self.make()
        # same channel, different banks: completions overlap
        times = completed(backend, events, [0, 256, 512, 768])
        spread = max(times) - min(times)
        assert spread < 4 * 50  # far less than 4 serial accesses


class TestFreecursiveBackend:
    def make(self, channels=1):
        events = EventQueue()
        config = table2_config(DesignPoint.FREECURSIVE, channels=channels)
        return build_backend(config, events), events

    def test_miss_costs_hundreds_of_cycles(self):
        backend, events = self.make()
        times = completed(backend, events, [0])
        assert times[0] > 1000

    def test_backend_is_serial(self):
        backend, events = self.make()
        times = completed(backend, events, [0, 1 << 20])
        assert times[1] > times[0]

    def test_accessorams_counted(self):
        backend, events = self.make()
        completed(backend, events, [0, 64, 128])
        assert backend.counters.accessorams >= 3

    def test_two_channels_faster(self):
        one, events1 = self.make(channels=1)
        addresses = [index << 14 for index in range(8)]
        end1 = max(completed(one, events1, addresses))
        two, events2 = self.make(channels=2)
        end2 = max(completed(two, events2, addresses))
        assert end2 < 0.7 * end1

    def test_oram_cache_shortens_paths(self):
        cached, ev1 = self.make()
        uncached_config = table2_config(DesignPoint.FREECURSIVE,
                                        oram_cache_enabled=False)
        ev2 = EventQueue()
        uncached = build_backend(uncached_config, ev2)
        t_cached = completed(cached, ev1, [0])[0]
        t_uncached = completed(uncached, ev2, [0])[0]
        assert t_uncached > t_cached


class TestIndependentBackend:
    def make(self):
        events = EventQueue()
        config = table2_config(DesignPoint.INDEP_2, channels=1)
        return build_backend(config, events), events

    def test_parallelism_across_sdimms(self):
        """Many simultaneous single-op requests should overlap 2-wide."""
        backend, events = self.make()
        rng = DeterministicRng(7, "addr")
        addresses = [rng.randrange(1 << 22) for _ in range(40)]
        end = max(completed(backend, events, addresses))
        ops = backend.counters.accessorams
        serial_estimate = ops * 1700
        assert end < 0.75 * serial_estimate

    def test_devices_share_load(self):
        backend, events = self.make()
        rng = DeterministicRng(7, "addr")
        completed(backend, events,
                  [rng.randrange(1 << 22) for _ in range(30)])
        counts = [device.path_accesses for device in backend.devices]
        assert min(counts) > 0

    def test_probes_and_appends_counted(self):
        backend, events = self.make()
        completed(backend, events, [0])
        assert backend.counters.probe_commands >= 1
        # one APPEND per SDIMM per accessORAM
        assert backend.counters.append_messages == \
            2 * backend.counters.accessorams

    def test_main_bus_carries_blocks_not_paths(self):
        backend, events = self.make()
        completed(backend, events, [0])
        ops = backend.counters.accessorams
        # ACCESS + FETCH_RESULT + 2 APPENDs = 4 blocks per op on the bus
        assert backend.buses[0].block_transfers == 4 * ops

    def test_internal_channels_carry_the_paths(self):
        backend, events = self.make()
        completed(backend, events, [0])
        internal = sum(channel.counters.accesses
                       for channel in backend.channels)
        lines_per_path = backend.devices[0].dram_path_lines
        assert internal >= 2 * lines_per_path  # read + write of >= 1 path


class TestSplitBackend:
    def make(self, channels=1):
        events = EventQueue()
        design = (DesignPoint.SPLIT_2 if channels == 1
                  else DesignPoint.SPLIT_4)
        config = table2_config(design, channels=channels)
        return build_backend(config, events), events

    def test_lower_latency_than_freecursive(self):
        split, ev1 = self.make()
        t_split = completed(split, ev1, [0])[0]
        ev2 = EventQueue()
        freecursive = build_backend(
            table2_config(DesignPoint.FREECURSIVE, channels=1), ev2)
        t_fc = completed(freecursive, ev2, [0])[0]
        assert t_split < t_fc

    def test_all_members_fetch(self):
        backend, events = self.make()
        completed(backend, events, [0])
        assert all(device.path_accesses > 0 for device in backend.devices)

    def test_metadata_crosses_the_bus(self):
        backend, events = self.make()
        completed(backend, events, [0])
        assert backend.buses[0].line_transfers > 0

    def test_split4_uses_both_channels(self):
        backend, events = self.make(channels=2)
        completed(backend, events, [0])
        assert all(bus.line_transfers > 0 for bus in backend.buses)

    @pytest.mark.parametrize("design,channels", [
        (DesignPoint.SPLIT_2, 1), (DesignPoint.INDEP_SPLIT, 2)])
    def test_members_build_no_whole_path_pass(self, design, channels):
        """A split member never runs a whole-path access, so only the
        group's one producer (from the leader's layout) is built."""
        events = EventQueue()
        backend = build_backend(table2_config(design, channels=channels),
                                events)
        completed(backend, events, [0])
        assert not any("fastpath" in vars(device)
                       for device in backend.devices)
        assert backend.fastpath_stats()[0] > 0


class TestIndepSplitBackend:
    def make(self):
        events = EventQueue()
        config = table2_config(DesignPoint.INDEP_SPLIT, channels=2)
        return build_backend(config, events), events

    def test_two_groups_of_two(self):
        backend, events = self.make()
        assert len(backend.groups) == 2
        assert len(backend.devices) == 4

    def test_groups_overlap(self):
        backend, events = self.make()
        rng = DeterministicRng(9, "addr")
        addresses = [rng.randrange(1 << 22) for _ in range(40)]
        end = max(completed(backend, events, addresses))
        ops = backend.counters.accessorams
        serial_estimate = ops * 1000
        assert end < 0.85 * serial_estimate

    def test_appends_broadcast_per_group(self):
        backend, events = self.make()
        completed(backend, events, [0])
        assert backend.counters.append_messages == \
            2 * backend.counters.accessorams


class TestBuildBackend:
    def test_all_designs_buildable(self):
        for design, channels in [
            (DesignPoint.NONSECURE, 1),
            (DesignPoint.FREECURSIVE, 1),
            (DesignPoint.INDEP_2, 1),
            (DesignPoint.SPLIT_2, 1),
            (DesignPoint.INDEP_4, 2),
            (DesignPoint.SPLIT_4, 2),
            (DesignPoint.INDEP_SPLIT, 2),
        ]:
            backend = build_backend(table2_config(design, channels=channels))
            assert backend is not None


class TestParkedRankFallback:
    """A parked rank sends a path pass from the stamp to the run walk.

    With the standard layout ``prepare_rank`` wakes nothing, so parking
    every rank before every other access makes those passes fall back
    mid-run while the passes in between stamp.  The reference core walks
    every pass; both must give the same cycles, counters, residencies
    and trace events.
    """

    ACCESSES = 6

    def run(self, design):
        config = small_config(design)
        config = dataclasses.replace(
            config, sdimm=dataclasses.replace(config.sdimm,
                                              low_power_ranks=False))
        tracer = CollectingTracer()
        backend = build_backend(config, EventQueue(), tracer=tracer)
        if design is DesignPoint.FREECURSIVE:
            access = backend._access_oram
        else:
            access = backend.group.perform_split_access
        now = 0
        ends = []
        for index in range(self.ACCESSES):
            if index % 2 == 0:
                for channel in backend.channels:
                    for rank in channel.ranks:
                        rank.enter_power_down(now)
            now = access(now)
            ends.append(now)
        backend.finalize(now)
        observed = {
            "ends": ends,
            "counters": [channel.counters.as_dict()
                         for channel in backend.channels],
            "residencies": [dict(rank.state_residency,
                                 exits=rank.power_down_exits)
                            for channel in backend.channels
                            for rank in channel.ranks],
            "events": [(e.kind, e.name, e.category, e.lane, e.start,
                        e.duration, sorted(e.args.items()))
                       for e in tracer.events],
        }
        return observed, backend.fastpath_stats()

    @pytest.mark.parametrize("design", [DesignPoint.FREECURSIVE,
                                        DesignPoint.SPLIT_2])
    def test_fallback_matches_reference_core(self, design):
        fast, (attempts, stamped) = self.run(design)
        with memo.selected(CoreSelection(reference=True)):
            reference, _ = self.run(design)
        assert attempts > stamped
        assert fast == reference
        assert any(entry["exits"] for entry in fast["residencies"])
