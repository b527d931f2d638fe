"""Event-driven memory backends for every design point of Figures 6-9.

Each backend exposes ``submit(line_address, now, on_complete)``: the chain
of ``accessORAM`` operations a miss needs (PLB walk) advances through
completion events, and exclusive resources (SDIMM internal channels, the
serial Freecursive backend, split groups) are :class:`WorkQueue`\\ s, so
independent chains genuinely overlap — the source of the Independent
protocol's parallelism.

* :class:`NonSecureBackend` — plain FR-FCFS DRAM, the normalization base.
* :class:`FreecursiveBackend` — the paper's baseline: one serial ORAM
  backend whose path bursts stripe over all main channels.
* :class:`IndependentBackend` — one ORAM subtree per SDIMM; shuffles on the
  SDIMM-internal channels; ACCESS/PROBE/FETCH_RESULT/APPEND on main buses.
* :class:`SplitBackend` — every access fans out over all SDIMMs; data moves
  locally, metadata and the one requested block cross the main buses.
* :class:`IndepSplitBackend` — independent groups of split pairs, behind
  the same :class:`PartitionedBackend` front end as Independent.

Obliviousness makes ORAM timing content-independent (leaves are fresh
uniform draws, APPEND broadcasts unconditional), so backends draw leaf
randomness locally instead of tracking block positions.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import DesignPoint, SystemConfig
from repro.core.lowpower import RankPowerManager
from repro.dram.address import AddressMapper
from repro.dram.channel import Channel, MemoryRequest
from repro.dram.scheduler import FrFcfsScheduler
from repro.dram.stamp import emit_batch, pass_eligible, stamp_pass
from repro.fastpath.access import AccessFastPath
from repro.fastpath.runs import FastLowPowerRuns, FastTreeRuns
from repro.obs.tracer import (CATEGORY_PROTOCOL, NULL_TRACER, Tracer)
from repro.oram.layout import LowPowerLayout, TreeLayout
from repro.oram.plb import PlbFrontend
from repro.oram.tree import TreeGeometry
from repro.sim.bus import LinkBus
from repro.sim.events import EventQueue, WorkQueue
from repro.utils import memo
from repro.utils.bitops import ceil_div, log2_exact
from repro.utils.rng import DeterministicRng

CompletionCallback = Optional[Callable[[int], None]]


class BackendCounters:
    """Protocol-level counters shared by the secure backends."""

    def __init__(self):
        self.accessorams = 0
        self.probe_commands = 0
        self.drain_accesses = 0
        self.append_messages = 0
        self.result_blocks = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class StampedBackend:
    """A secure backend whose path passes count stamp attempts.

    ``stamp_sites`` lists the :class:`AccessFastPath`\\ s or
    :class:`SplitGroupDevice`\\ s that run the backend's path accesses.
    """

    stamp_sites: List

    def fastpath_stats(self) -> Tuple[int, int]:
        """(attempted, stamped) path accesses for the ledger.

        The reference core attempts none, so it reports ``(0, 0)``.
        """
        attempts = fast = 0
        for site in self.stamp_sites:
            attempts += site.attempts
            fast += site.fast_accesses
        return attempts, fast


# ----------------------------------------------------------------------
# Non-secure baseline
# ----------------------------------------------------------------------

class NonSecureBackend:
    """Conventional DRAM behind FR-FCFS schedulers (one per channel)."""

    def __init__(self, config: SystemConfig, events: EventQueue,
                 tracer: Tracer = NULL_TRACER):
        scale = config.cpu.cpu_cycles_per_mem_cycle
        self.config = config
        self.events = events
        self.tracer = tracer
        self.channels = [
            Channel(config.timing, config.organization, scale=scale,
                    refresh_enabled=config.refresh_enabled,
                    name=f"main{index}", tracer=tracer)
            for index in range(config.channels)
        ]
        self.schedulers = [FrFcfsScheduler(channel, config.scheduler,
                                           tracer=tracer)
                           for channel in self.channels]
        self._issuing = [False] * config.channels
        self.mapper = AddressMapper(config.organization,
                                    config.oram.block_bytes)
        self.buses: List[LinkBus] = []
        self.counters = BackendCounters()

    def submit(self, line_address: int, now: int, is_write: bool,
               on_complete: CompletionCallback = None) -> None:
        channels = len(self.channels)
        local_line = (line_address // channels) % self.mapper.lines_per_channel
        channel_index = line_address % channels
        self.schedulers[channel_index].enqueue(MemoryRequest(
            self.mapper.decode(local_line), is_write, now, on_complete))
        self._pump(channel_index)

    def _pump(self, channel_index: int) -> None:
        """Issue the next request; re-arm when its data burst starts.

        Re-arming at data_start (not data_end) lets the next request's
        PRE/ACT preparation overlap the current burst, as a real controller
        pipelines them; the shared data bus still serializes the bursts
        inside :meth:`Channel.schedule_access`.
        """
        if self._issuing[channel_index]:
            return
        scheduler = self.schedulers[channel_index]
        if not scheduler.has_work():
            return
        request, timing = scheduler.issue_next(self.events.now)
        self._issuing[channel_index] = True
        call_at = self.events.call_at
        call_at(timing.data_start, self._rearm, channel_index)
        if request.on_complete is not None:
            call_at(timing.data_end, request.on_complete, timing.data_end)

    def _rearm(self, channel_index: int) -> None:
        self._issuing[channel_index] = False
        self._pump(channel_index)

    def finalize(self, end_cycle: int) -> None:
        for index, scheduler in enumerate(self.schedulers):
            while scheduler.has_work():
                scheduler.issue_next(end_cycle)
        for channel in self.channels:
            channel.finalize(end_cycle)


# ----------------------------------------------------------------------
# Freecursive baseline (the paper's comparison point)
# ----------------------------------------------------------------------

class FreecursiveBackend(StampedBackend):
    """Serial Freecursive ORAM backend striped over the main channels."""

    def __init__(self, config: SystemConfig, events: EventQueue,
                 tracer: Tracer = NULL_TRACER):
        scale = config.cpu.cpu_cycles_per_mem_cycle
        self.config = config
        self.events = events
        self.tracer = tracer
        self.channels = [
            Channel(config.timing, config.organization, scale=scale,
                    refresh_enabled=config.refresh_enabled,
                    name=f"main{index}", tracer=tracer)
            for index in range(config.channels)
        ]
        self.geometry = TreeGeometry(config.oram.levels)
        self.layout = TreeLayout(self.geometry, config.oram,
                                 config.organization, config.channels)
        self.frontend = PlbFrontend(config.oram)
        self.rng = DeterministicRng(config.seed, "freecursive-backend")
        self.skip_levels = config.effective_cached_levels
        self.crypto = config.oram.crypto_latency_cycles
        self.work = WorkQueue(events, "oram-backend")
        self.buses: List[LinkBus] = []
        self.counters = BackendCounters()
        self.fastpath = AccessFastPath(
            self.channels, FastTreeRuns(self.layout), self.layout.path_runs,
            self.skip_levels, self.crypto, "oram-backend", tracer)
        self.stamp_sites = [self.fastpath]

    def submit(self, line_address: int, now: int, is_write: bool,
               on_complete: CompletionCallback = None) -> None:
        operations = self.frontend.translate(line_address)
        self.counters.accessorams += len(operations)
        pending = len(operations)
        state = {"remaining": pending, "finish": now}

        def op_done(finish: int) -> None:
            state["remaining"] -= 1
            state["finish"] = finish
            if state["remaining"] == 0 and on_complete is not None:
                on_complete(finish)

        for _ in range(pending):
            self.work.enqueue(now, self._access_oram, op_done)

    def _access_oram(self, start: int) -> int:
        leaf = self.rng.random_leaf(self.geometry.leaf_count)
        return self.fastpath.access(leaf, start)

    def finalize(self, end_cycle: int) -> None:
        for channel in self.channels:
            channel.finalize(end_cycle)


# ----------------------------------------------------------------------
# SDIMM building block
# ----------------------------------------------------------------------

class SdimmDevice:
    """One SDIMM's internal world: secure buffer + its private channel.

    The device is an exclusive resource: jobs (whole or sliced path
    accesses) run through its :class:`WorkQueue` in arrival order.
    """

    def __init__(self, config: SystemConfig, events: EventQueue, name: str,
                 local_levels: int, skip_levels: int,
                 rng: DeterministicRng, tracer: Tracer = NULL_TRACER):
        scale = config.cpu.cpu_cycles_per_mem_cycle
        organization = dataclasses.replace(config.organization,
                                           dimms_per_channel=1)
        self.name = name
        self.tracer = tracer
        self.channel = Channel(config.timing, organization, scale=scale,
                               refresh_enabled=config.refresh_enabled,
                               on_dimm=True, name=name, tracer=tracer)
        self.geometry = TreeGeometry(local_levels)
        self.low_power = config.sdimm.low_power_ranks
        if self.low_power:
            self.layout = LowPowerLayout(self.geometry, config.oram,
                                         organization)
            self.power = RankPowerManager(self.channel, enabled=True)
        else:
            self.layout = TreeLayout(self.geometry, config.oram,
                                     organization, channels=1)
            self.power = RankPowerManager(self.channel, enabled=False)
        self.skip_levels = min(skip_levels, local_levels - 1)
        self.crypto = config.oram.crypto_latency_cycles
        self.rng = rng
        self.work = WorkQueue(events, name)
        self.path_accesses = 0
        self._plain_mapper = AddressMapper(self.channel.organization, 64)

    def path_producer(self):
        """This device's layout as fastpath row segments."""
        if self.low_power:
            return FastLowPowerRuns(self.layout)
        return FastTreeRuns(self.layout)

    @functools.cached_property
    def fastpath(self) -> AccessFastPath:
        """The whole-path pass, built on first use: a split member never
        runs one (its group stamps from the leader's producer)."""
        runs = self._rank_runs if self.low_power else self.layout.path_runs
        return AccessFastPath([self.channel], self.path_producer(), runs,
                              self.skip_levels, self.crypto, self.name,
                              self.tracer)

    # ------------------------------------------------------------------

    def _rank_runs(self, leaf: int, skip_levels: int) -> List:
        """The low-power layout's runs as (channel 0, coordinates, count)."""
        return [(0, address, count) for address, count in
                self.layout.path_runs(leaf, skip_levels)]

    def _path_runs(self, leaf: int) -> List:
        """(coordinates, line count) streaming runs of one path."""
        if self.low_power:
            return self.layout.path_runs(leaf, self.skip_levels)
        return [(address, count) for _, address, count in
                self.layout.path_runs(leaf, self.skip_levels)]

    @staticmethod
    def slice_runs(runs: List, way: int, ways: int) -> List:
        """One device's 1/N share of a path (Split bit-slicing).

        A member's DRAM stores its slices packed, so its share of a
        ``count``-line run occupies about ``count / ways`` lines of its own
        memory at the same coordinates.
        """
        if ways <= 1:
            return runs
        share = []
        for address, count in runs:
            portion = (count - way + ways - 1) // ways
            if portion > 0:
                share.append((address, portion))
        return share

    def random_leaf(self) -> int:
        return self.rng.random_leaf(self.geometry.leaf_count)

    def prepare_rank(self, leaf: int, start: int) -> int:
        """Wake the rank owning ``leaf``'s subtree (low-power layout)."""
        if self.low_power:
            return self.power.prepare_access(
                self.layout.rank_of_leaf(leaf), start)
        return start

    def schedule_runs(self, runs: List, is_write: bool, start: int) -> int:
        end = start
        for address, count in runs:
            timing = self.channel.schedule_run(address, count, is_write,
                                               start)
            end = max(end, timing.data_end)
        return end

    def perform_path_access(self, start: int) -> int:
        """One local accessORAM: path read, crypto, path write-back."""
        self.path_accesses += 1
        leaf = self.random_leaf()
        return self.fastpath.access(leaf, self.prepare_rank(leaf, start))

    @property
    def dram_path_lines(self) -> int:
        """Lines one full path access touches in this device's DRAM."""
        return sum(count for _, count in self._path_runs(0))

    def perform_plain_access(self, start: int, line_address: int,
                             is_write: bool) -> int:
        """A single non-secure line access on this DIMM (morphed mode).

        Section III-A.4: "an SDIMM-based system can easily morph between a
        secure and non-secure memory" — the buffer simply relays a normal
        access instead of running ``accessORAM``.
        """
        mapper = self._plain_mapper
        address = mapper.decode(line_address % mapper.lines_per_channel)
        start = self.prepare_rank_by_index(address.rank, start)
        timing = self.channel.schedule_access(address, is_write, start)
        return timing.data_end

    def prepare_rank_by_index(self, rank: int, start: int) -> int:
        if self.low_power:
            return self.power.prepare_access(rank, start)
        return start

    def finalize(self, end_cycle: int) -> None:
        self.power.finish(end_cycle)
        self.channel.finalize(end_cycle)


# ----------------------------------------------------------------------
# The SDIMM backends' shared shell and partitioned front end
# ----------------------------------------------------------------------

class SdimmBackend(StampedBackend):
    """What the three SDIMM backends share: the main-channel link buses,
    the PLB front end, ``submit`` and ``finalize``.

    A subclass builds ``devices`` and chains one miss's accessORAMs in
    ``_next_op``.
    """

    devices: List[SdimmDevice]

    def __init__(self, config: SystemConfig, events: EventQueue,
                 tracer: Tracer):
        scale = config.cpu.cpu_cycles_per_mem_cycle
        self.config = config
        self.events = events
        self.tracer = tracer
        burst = config.timing.tburst * scale
        self.buses = [LinkBus(burst, name=f"bus{index}", tracer=tracer)
                      for index in range(config.channels)]
        self.frontend = PlbFrontend(config.oram)
        self.crypto = config.oram.crypto_latency_cycles
        self.counters = BackendCounters()

    @property
    def channels(self) -> List[Channel]:
        return [device.channel for device in self.devices]

    def submit(self, line_address: int, now: int, is_write: bool,
               on_complete: CompletionCallback = None) -> None:
        for bus in self.buses:
            bus.advance(now)
        operations = self.frontend.translate(line_address)
        self.counters.accessorams += len(operations)
        self._next_op(len(operations), now, on_complete)

    def _next_op(self, remaining: int, now: int,
                 on_complete: CompletionCallback) -> None:
        raise NotImplementedError

    def finalize(self, end_cycle: int) -> None:
        for device in self.devices:
            device.finalize(end_cycle)


class PartitionedBackend(SdimmBackend):
    """The Independent front end over partition sites (Section III-C).

    Each site owns one subtree: an SDIMM (:class:`IndependentBackend`) or
    a split group (:class:`IndepSplitBackend`).  A subclass sets
    ``sites``, each site's link bus (``site_buses``), each site's
    accessORAM (``site_passes``) and the route RNG ``rng``.  Independent
    polls for the result with PROBE (``probes``); INDEP-SPLIT fetches it
    at the group's ``last_data_ready``.
    """

    probes = False

    @staticmethod
    def partition(config: SystemConfig, sites: int) -> Tuple[int, int]:
        """(local levels, cached levels skipped) of one site's subtree."""
        bits = log2_exact(sites)
        return (config.oram.levels - bits,
                max(0, config.effective_cached_levels - bits))

    def _next_op(self, remaining: int, now: int,
                 on_complete: CompletionCallback) -> None:
        if remaining == 0:
            if on_complete is not None:
                on_complete(now)
            return
        sites = self.sites
        owner = self.rng.randrange(len(sites))
        site = sites[owner]
        bus = self.site_buses[owner]

        # Step 1: ACCESS + one block of data on the owner's channel.
        access_start, request_end = bus.reserve_block(now)
        arrival = request_end + self.crypto
        if self.tracer.enabled:
            self.tracer.span("ACCESS", CATEGORY_PROTOCOL, bus.name,
                             access_start, request_end)

        def done(ready: int) -> None:
            # Step 5: FETCH_RESULT returns the block, once PROBE polling
            # finds the response (Independent) or as soon as the group's
            # data is ready (INDEP-SPLIT).
            if self.probes:
                fetch_at = self._probe(request_end, ready, bus)
            else:
                fetch_at = site.last_data_ready
            result_start, response_end = bus.reserve_block(fetch_at)
            self.counters.result_blocks += 1
            if self.tracer.enabled:
                if self.probes:
                    self.tracer.span("PROBE", CATEGORY_PROTOCOL, bus.name,
                                     ready, fetch_at)
                    result_start = fetch_at
                self.tracer.span("FETCH_RESULT", CATEGORY_PROTOCOL,
                                 bus.name, result_start, response_end)
            # Step 6: APPEND one block to every site (dummies included).
            new_owner = self.rng.randrange(len(sites))
            for index, target in enumerate(sites):
                target_bus = self.site_buses[index]
                append_start, append_end = \
                    target_bus.reserve_block(response_end)
                self.counters.append_messages += 1
                if self.tracer.enabled:
                    self.tracer.span("APPEND", CATEGORY_PROTOCOL,
                                     target_bus.name, append_start,
                                     append_end)
                migrated = index == new_owner and new_owner != owner
                if migrated and self.rng.bernoulli(
                        self.config.sdimm.drain_probability):
                    # queue drain: the receiver spends a dummy access
                    self.counters.drain_accesses += 1
                    if self.tracer.enabled:
                        self.tracer.instant("drain", CATEGORY_PROTOCOL,
                                            target.name, append_end)
                    target.work.enqueue(append_end, self.site_passes[index])
            self._next_op(remaining - 1, response_end + self.crypto,
                          on_complete)

        site.work.enqueue(arrival, self.site_passes[owner], done)

    def _probe(self, first_possible: int, ready: int, bus: LinkBus) -> int:
        """Poll from ``first_possible`` until after ``ready``."""
        interval = self.probe_interval
        elapsed = max(0, ready - first_possible)
        polls = elapsed // interval + 1
        self.counters.probe_commands += polls
        bus.command_slots += int(polls)
        return max(first_possible + polls * interval, ready)


# ----------------------------------------------------------------------
# Independent protocol backend
# ----------------------------------------------------------------------

class IndependentBackend(PartitionedBackend):
    """One subtree per SDIMM; requests fan out, shuffles stay local."""

    probes = True

    def __init__(self, config: SystemConfig, events: EventQueue,
                 tracer: Tracer = NULL_TRACER):
        super().__init__(config, events, tracer)
        count = config.sdimm_count
        local_levels, skip = self.partition(config, count)
        rng = DeterministicRng(config.seed, "independent-backend")
        self.devices = [
            SdimmDevice(config, events, f"sdimm{index}", local_levels, skip,
                        rng.child(f"dev{index}"), tracer=tracer)
            for index in range(count)
        ]
        self.rng = rng.child("route")
        self.sites = self.devices
        self.site_buses = [
            self.buses[index // config.organization.dimms_per_channel]
            for index in range(count)]
        self.site_passes = [device.perform_path_access
                            for device in self.devices]
        self.probe_interval = (config.sdimm.probe_interval_mem_cycles *
                               config.cpu.cpu_cycles_per_mem_cycle)
        self.stamp_sites = [device.fastpath for device in self.devices]

    def submit_plain(self, line_address: int, now: int, is_write: bool,
                     on_complete: CompletionCallback = None) -> None:
        """Morphed non-secure access: one line, no ORAM (Section III-A.4).

        The request and response still cross the (encrypted) link — one
        block each way — but the buffer relays a single DRAM access
        instead of shuffling a path.
        """
        device_index = line_address % len(self.devices)
        device = self.devices[device_index]
        bus = self.site_buses[device_index]
        _, request_end = bus.reserve_block(now)

        def work(start: int) -> int:
            return device.perform_plain_access(start, line_address,
                                               is_write)

        def done(ready: int) -> None:
            _, response_end = bus.reserve_block(ready)
            if on_complete is not None:
                on_complete(response_end)

        device.work.enqueue(request_end, work,
                            done if not is_write else None)


# ----------------------------------------------------------------------
# Split protocol backend
# ----------------------------------------------------------------------

class SplitGroupDevice:
    """A set of SDIMMs serving every access together, bit-sliced.

    The group as a whole is the exclusive resource (one split access
    engages every member), so it owns the WorkQueue; members contribute
    their internal channels.
    """

    def __init__(self, config: SystemConfig, events: EventQueue,
                 members: List[SdimmDevice], member_buses: List[LinkBus],
                 crypto: int, name: str, tracer: Tracer = NULL_TRACER):
        self.config = config
        self.name = name
        self.tracer = tracer
        self.members = members
        self.member_buses = member_buses
        self.ways = len(members)
        self.crypto = crypto
        self.work = WorkQueue(events, name)
        geometry = members[0].geometry
        self.geometry = geometry
        self._path_buckets = geometry.levels - members[0].skip_levels
        # RECEIVE_LIST payload: ~8 B counter + 2 B of orders per bucket,
        # plus the (always present) updated block.
        self._list_lines = ceil_div(self._path_buckets * 10, 64) + 1
        self._last_data_ready = 0
        self.producer = members[0].path_producer()
        self.attempts = 0
        self.fast_accesses = 0

    def _member_pass(self, way: int, leaf: int, shares, rank_indices,
                     is_write: bool, earliest: int) -> Tuple[int, bool]:
        """One member's share of a pass; returns (end cycle, stamped).

        The share is stamped flat when ``shares`` holds it and no touched
        rank is parked; an empty share is trivially "stamped" (the walk
        would schedule nothing and return ``earliest``).  Otherwise the
        member walks its slice of the layout's runs.  Per-member event
        batches commit immediately, so the emission order matches the
        walk's member-by-member loop exactly.
        """
        member = self.members[way]
        if shares is not None:
            share = shares[way]
            if not share:
                return earliest, True
            if pass_eligible(member.channel, rank_indices, earliest):
                batch = [] if self.tracer.enabled else None
                end = stamp_pass(member.channel, share, is_write, earliest,
                                 batch)
                if batch:
                    emit_batch(self.tracer, batch)
                return end, True
        runs = self.members[0]._path_runs(leaf)
        share = SdimmDevice.slice_runs(runs, way, self.ways)
        return member.schedule_runs(share, is_write, earliest), False

    def perform_split_access(self, start: int) -> int:
        """One split accessORAM; returns the *backend busy-until* time.

        The CPU-visible data-ready time (before write-back) is stored in
        ``last_data_ready`` for the completion callback.
        """
        leader = self.members[0]
        leaf = leader.random_leaf()
        shares = rank_indices = None
        if not memo.CORE.reference:
            self.attempts += 1
            pattern = self.producer.pattern(leaf, leader.skip_levels)
            if pattern.per_channel:
                shares = pattern.slices(self.ways)
                rank_indices = tuple(rank for _, rank in pattern.sig_ranks)
        all_fast = shares is not None
        # Step 1: FETCH_DATA — every member pulls its slice of the path.
        read_ends = []
        for way, member in enumerate(self.members):
            member.path_accesses += 1
            end, stamped = self._member_pass(
                way, leaf, shares, rank_indices, False,
                member.prepare_rank(leaf, start))
            all_fast = all_fast and stamped
            read_ends.append(end)
        # Step 2: metadata slices cross the main bus (1 line per bucket in
        # total, split across the members' buses).
        meta_end = start
        share_lines = ceil_div(self._path_buckets, self.ways)
        for bus in self.member_buses:
            _, end = bus.reserve_lines(start, share_lines)
            meta_end = max(meta_end, end)
        merged = max(max(read_ends), meta_end) + self.crypto
        # Step 4: FETCH_STASH — the one requested block, sliced.  The
        # eviction plan depends only on the merged metadata, so RECEIVE_LIST
        # (step 5) ships concurrently with the block fetch.
        stash_end = merged
        list_end = merged
        for bus in self.member_buses:
            _, end = bus.reserve_lines(merged, 1)
            stash_end = max(stash_end, end)
            _, end = bus.reserve_lines(merged,
                                       ceil_div(self._list_lines, self.ways))
            list_end = max(list_end, end)
        data_ready = stash_end + self.crypto
        self._last_data_ready = data_ready
        write_ends = []
        for way in range(self.ways):
            end, stamped = self._member_pass(way, leaf, shares, rank_indices,
                                             True, list_end)
            all_fast = all_fast and stamped
            write_ends.append(end)
        write_end = max(write_ends)
        if all_fast:
            self.fast_accesses += 1
        if self.tracer.enabled:
            lane = self.name
            self.tracer.span("FETCH_DATA", CATEGORY_PROTOCOL, lane,
                             start, max(read_ends))
            self.tracer.span("METADATA", CATEGORY_PROTOCOL, lane,
                             start, meta_end)
            self.tracer.span("FETCH_STASH", CATEGORY_PROTOCOL, lane,
                             merged, stash_end)
            self.tracer.span("RECEIVE_LIST", CATEGORY_PROTOCOL, lane,
                             merged, list_end)
            self.tracer.span("PATH_WRITE", CATEGORY_PROTOCOL, lane,
                             list_end, write_end)
        return write_end

    @property
    def last_data_ready(self) -> int:
        return self._last_data_ready


class SplitBackend(SdimmBackend):
    """All SDIMMs serve each access together (SPLIT-2 / SPLIT-4)."""

    def __init__(self, config: SystemConfig, events: EventQueue,
                 tracer: Tracer = NULL_TRACER):
        super().__init__(config, events, tracer)
        count = config.sdimm_count
        skip = config.effective_cached_levels
        rng = DeterministicRng(config.seed, "split-backend")
        self.devices = [
            SdimmDevice(config, events, f"sdimm{index}", config.oram.levels,
                        skip, rng.child(f"dev{index}"), tracer=tracer)
            for index in range(count)
        ]
        member_buses = [self.buses[index //
                                   config.organization.dimms_per_channel]
                        for index in range(count)]
        self.group = SplitGroupDevice(config, events, self.devices,
                                      member_buses, self.crypto,
                                      "split-group", tracer=tracer)
        self.stamp_sites = [self.group]

    def _next_op(self, remaining: int, now: int,
                 on_complete: CompletionCallback) -> None:
        if remaining == 0:
            if on_complete is not None:
                on_complete(now)
            return
        group = self.group

        def done(_finish: int) -> None:
            # the chain continues as soon as the requested block arrives;
            # the write-back keeps the group busy in the background
            self._next_op(remaining - 1, group.last_data_ready, on_complete)

        group.work.enqueue(now, group.perform_split_access, done)


# ----------------------------------------------------------------------
# Combined INDEP-SPLIT backend
# ----------------------------------------------------------------------

class IndepSplitBackend(PartitionedBackend):
    """Independent groups of split pairs (Figure 7e)."""

    def __init__(self, config: SystemConfig, events: EventQueue,
                 tracer: Tracer = NULL_TRACER):
        super().__init__(config, events, tracer)
        per_channel = config.organization.dimms_per_channel
        group_count = config.channels
        local_levels, skip = self.partition(config, group_count)
        rng = DeterministicRng(config.seed, "indep-split-backend")
        self.groups: List[SplitGroupDevice] = []
        self.devices = []
        for group_index in range(group_count):
            members = [
                SdimmDevice(config, events,
                            f"sdimm{group_index * per_channel + member}",
                            local_levels, skip,
                            rng.child(f"dev{group_index}-{member}"),
                            tracer=tracer)
                for member in range(per_channel)
            ]
            self.devices.extend(members)
            member_buses = [self.buses[group_index]] * per_channel
            self.groups.append(SplitGroupDevice(
                config, events, members, member_buses, self.crypto,
                f"split-group{group_index}", tracer=tracer))
        self.rng = rng.child("route")
        self.sites = self.groups
        self.site_buses = self.buses
        self.site_passes = [group.perform_split_access
                            for group in self.groups]
        self.stamp_sites = self.groups


BACKEND_CLASSES = {
    DesignPoint.NONSECURE: NonSecureBackend,
    DesignPoint.FREECURSIVE: FreecursiveBackend,
    DesignPoint.INDEP_2: IndependentBackend,
    DesignPoint.INDEP_4: IndependentBackend,
    DesignPoint.SPLIT_2: SplitBackend,
    DesignPoint.SPLIT_4: SplitBackend,
    DesignPoint.INDEP_SPLIT: IndepSplitBackend,
}
