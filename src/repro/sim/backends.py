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
* :class:`IndepSplitBackend` — independent groups of split pairs.

Obliviousness makes ORAM timing content-independent (leaves are fresh
uniform draws, APPEND broadcasts unconditional), so backends draw leaf
randomness locally instead of tracking block positions.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import DesignPoint, SystemConfig
from repro.core.lowpower import RankPowerManager
from repro.dram.address import AddressMapper
from repro.dram.channel import Channel, MemoryRequest
from repro.dram.scheduler import FrFcfsScheduler
from repro.fastpath import (AccessFastPath, FastLowPowerRuns, FastTreeRuns,
                            emit_batch, pass_eligible, stamp_pass)
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
        self._callbacks: Dict[int, CompletionCallback] = {}
        self.mapper = AddressMapper(config.organization,
                                    config.oram.block_bytes)
        self.buses: List[LinkBus] = []
        self.counters = BackendCounters()

    def submit(self, line_address: int, now: int, is_write: bool,
               on_complete: CompletionCallback = None) -> None:
        channel_index = line_address % len(self.channels)
        local_line = (line_address // len(self.channels)) % \
            self.mapper.lines_per_channel
        request = MemoryRequest(self.mapper.decode(local_line), is_write,
                                now)
        if on_complete is not None:
            self._callbacks[request.request_id] = on_complete
        self.schedulers[channel_index].enqueue(request)
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
        callback = self._callbacks.pop(request.request_id, None)

        def rearm():
            self._issuing[channel_index] = False
            self._pump(channel_index)

        self.events.at(timing.data_start, rearm)
        if callback is not None:
            self.events.at(timing.data_end,
                           lambda: callback(timing.data_end))

    def finalize(self, end_cycle: int) -> None:
        for index, scheduler in enumerate(self.schedulers):
            while scheduler.has_work():
                scheduler.issue_next(end_cycle)
        for channel in self.channels:
            channel.finalize(end_cycle)


# ----------------------------------------------------------------------
# Freecursive baseline (the paper's comparison point)
# ----------------------------------------------------------------------

class FreecursiveBackend:
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
        self.fastpath: Optional[AccessFastPath] = None
        if memo.CORE.fastpath:
            self.fastpath = AccessFastPath(
                self.channels,
                FastTreeRuns(self.layout,
                             self.channels[0]._banks_per_group),
                self.skip_levels, self.crypto, "oram-backend", tracer)

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
        fast = self.fastpath
        if fast is not None:
            end = fast.try_access(leaf, start)
            if end is not None:
                return end
        runs = self.layout.path_runs(leaf, self.skip_levels)
        read_end = start
        for channel_index, address, count in runs:
            timing = self.channels[channel_index].schedule_run(
                address, count, False, start)
            read_end = max(read_end, timing.data_end)
        write_start = read_end + self.crypto
        write_end = write_start
        for channel_index, address, count in runs:
            timing = self.channels[channel_index].schedule_run(
                address, count, True, write_start)
            write_end = max(write_end, timing.data_end)
        if self.tracer.enabled:
            self.tracer.span("PATH_READ", CATEGORY_PROTOCOL,
                             "oram-backend", start, read_end)
            self.tracer.span("PATH_WRITE", CATEGORY_PROTOCOL,
                             "oram-backend", write_start, write_end)
        return write_end + self.crypto

    def fastpath_stats(self) -> Tuple[int, int]:
        """(attempted accesses, macro-replayed accesses) for the ledger."""
        fast = self.fastpath
        if fast is None:
            return (0, 0)
        return (fast.attempts, fast.fast_accesses)

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
        # morphed-mode mapper, built once so its decode memo survives
        self._plain_mapper = AddressMapper(self.channel.organization, 64)
        self.fastpath: Optional[AccessFastPath] = None
        if memo.CORE.fastpath:
            banks_per_group = self.channel._banks_per_group
            producer = (FastLowPowerRuns(self.layout, banks_per_group)
                        if self.low_power
                        else FastTreeRuns(self.layout, banks_per_group))
            self.fastpath = AccessFastPath([self.channel], producer,
                                           self.skip_levels, self.crypto,
                                           name, tracer)

    # ------------------------------------------------------------------

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
        start = self.prepare_rank(leaf, start)
        fast = self.fastpath
        if fast is not None:
            end = fast.try_access(leaf, start)
            if end is not None:
                return end
        runs = self._path_runs(leaf)
        if not runs:
            return start + 2 * self.crypto
        read_end = self.schedule_runs(runs, False, start)
        write_end = self.schedule_runs(runs, True, read_end + self.crypto)
        if self.tracer.enabled:
            self.tracer.span("PATH_READ", CATEGORY_PROTOCOL, self.name,
                             start, read_end)
            self.tracer.span("PATH_WRITE", CATEGORY_PROTOCOL, self.name,
                             read_end + self.crypto, write_end)
        return write_end + self.crypto

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
# Independent protocol backend
# ----------------------------------------------------------------------

class IndependentBackend:
    """One subtree per SDIMM; requests fan out, shuffles stay local."""

    def __init__(self, config: SystemConfig, events: EventQueue,
                 tracer: Tracer = NULL_TRACER):
        scale = config.cpu.cpu_cycles_per_mem_cycle
        self.config = config
        self.events = events
        self.tracer = tracer
        count = config.sdimm_count
        partition_bits = log2_exact(count)
        local_levels = config.oram.levels - partition_bits
        skip = max(0, config.effective_cached_levels - partition_bits)
        rng = DeterministicRng(config.seed, "independent-backend")
        self.devices = [
            SdimmDevice(config, events, f"sdimm{index}", local_levels, skip,
                        rng.child(f"dev{index}"), tracer=tracer)
            for index in range(count)
        ]
        burst = config.timing.tburst * scale
        self.buses = [LinkBus(burst, name=f"bus{index}", tracer=tracer)
                      for index in range(config.channels)]
        self._bus_of = [index // config.organization.dimms_per_channel
                        for index in range(count)]
        self.frontend = PlbFrontend(config.oram)
        self.rng = rng.child("route")
        self.probe_interval = (config.sdimm.probe_interval_mem_cycles *
                               scale)
        self.drain_probability = config.sdimm.drain_probability
        self.crypto = config.oram.crypto_latency_cycles
        self.channels = [device.channel for device in self.devices]
        self.counters = BackendCounters()

    def submit(self, line_address: int, now: int, is_write: bool,
               on_complete: CompletionCallback = None) -> None:
        for bus in self.buses:
            bus.advance(now)
        operations = self.frontend.translate(line_address)
        self.counters.accessorams += len(operations)
        self._next_op(len(operations), now, on_complete)

    def _next_op(self, remaining: int, now: int,
                 on_complete: CompletionCallback) -> None:
        if remaining == 0:
            if on_complete is not None:
                on_complete(now)
            return
        owner = self.rng.randrange(len(self.devices))
        device = self.devices[owner]
        bus = self.buses[self._bus_of[owner]]

        # Step 1: ACCESS + one block of data on the owner's channel.
        access_start, request_end = bus.reserve_block(now)
        arrival = request_end + self.crypto
        if self.tracer.enabled:
            self.tracer.span("ACCESS", CATEGORY_PROTOCOL, bus.name,
                             access_start, request_end)

        def done(ready: int) -> None:
            # Step 5: PROBE polling finds the response, FETCH_RESULT
            # returns the block.
            detected = self._probe(request_end, ready, bus)
            _, response_end = bus.reserve_block(detected)
            self.counters.result_blocks += 1
            if self.tracer.enabled:
                self.tracer.span("PROBE", CATEGORY_PROTOCOL, bus.name,
                                 ready, detected)
                self.tracer.span("FETCH_RESULT", CATEGORY_PROTOCOL,
                                 bus.name, detected, response_end)
            # Step 6: APPEND one block to every SDIMM (dummies included).
            new_owner = self.rng.randrange(len(self.devices))
            for index, target in enumerate(self.devices):
                target_bus = self.buses[self._bus_of[index]]
                append_start, append_end = \
                    target_bus.reserve_block(response_end)
                self.counters.append_messages += 1
                if self.tracer.enabled:
                    self.tracer.span("APPEND", CATEGORY_PROTOCOL,
                                     target_bus.name, append_start,
                                     append_end)
                migrated = index == new_owner and new_owner != owner
                if migrated and self.rng.bernoulli(self.drain_probability):
                    # queue drain: the receiver spends a dummy access
                    self.counters.drain_accesses += 1
                    if self.tracer.enabled:
                        self.tracer.instant("drain", CATEGORY_PROTOCOL,
                                            target.name, append_end)
                    target.work.enqueue(append_end,
                                        target.perform_path_access)
            self._next_op(remaining - 1, response_end + self.crypto,
                          on_complete)

        device.work.enqueue(arrival, device.perform_path_access, done)

    def _probe(self, first_possible: int, ready: int, bus: LinkBus) -> int:
        """Poll from ``first_possible`` until after ``ready``."""
        interval = self.probe_interval
        elapsed = max(0, ready - first_possible)
        polls = elapsed // interval + 1
        self.counters.probe_commands += polls
        bus.command_slots += int(polls)
        return max(first_possible + polls * interval, ready)

    def submit_plain(self, line_address: int, now: int, is_write: bool,
                     on_complete: CompletionCallback = None) -> None:
        """Morphed non-secure access: one line, no ORAM (Section III-A.4).

        The request and response still cross the (encrypted) link — one
        block each way — but the buffer relays a single DRAM access
        instead of shuffling a path.
        """
        device_index = line_address % len(self.devices)
        device = self.devices[device_index]
        bus = self.buses[self._bus_of[device_index]]
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

    def finalize(self, end_cycle: int) -> None:
        for device in self.devices:
            device.finalize(end_cycle)

    def fastpath_stats(self) -> Tuple[int, int]:
        attempts = fast = 0
        for device in self.devices:
            if device.fastpath is not None:
                attempts += device.fastpath.attempts
                fast += device.fastpath.fast_accesses
        return attempts, fast


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
        self.fastpath_attempts = 0
        self.fastpath_accesses = 0
        leader = members[0]
        self._fast_producer = (leader.fastpath.producer
                               if leader.fastpath is not None else None)

    def _stamp_member_pass(self, member: SdimmDevice, share, is_write: bool,
                           earliest: int, rank_indices) -> Optional[int]:
        """Stamp one member's pass share flat, or ``None`` to fall back.

        An empty share is trivially "stamped" (the event core would
        schedule nothing and return ``earliest``); otherwise the pass
        must be eligible on the member's channel.  Per-member event
        batches commit immediately, so the emission order matches the
        slow core's member-by-member loop exactly.
        """
        if not share:
            return earliest
        if not pass_eligible(member.channel, rank_indices, earliest):
            return None
        batch = [] if self.tracer.enabled else None
        end = stamp_pass(member.channel, share, is_write, earliest, batch)
        if batch:
            emit_batch(self.tracer, batch)
        return end

    def perform_split_access(self, start: int) -> int:
        """One split accessORAM; returns the *backend busy-until* time.

        The CPU-visible data-ready time (before write-back) is stored in
        ``last_data_ready`` for the completion callback.
        """
        leader = self.members[0]
        leaf = leader.random_leaf()
        producer = self._fast_producer
        shares = rank_indices = None
        if producer is not None:
            self.fastpath_attempts += 1
            pattern = producer.pattern(leaf, leader.skip_levels)
            if pattern.per_channel:
                shares = pattern.slices(self.ways)
                rank_indices = tuple(rank for _, rank in pattern.sig_ranks)
        all_fast = shares is not None
        runs = None
        # Step 1: FETCH_DATA — every member pulls its slice of the path.
        read_ends = []
        for way, member in enumerate(self.members):
            member.path_accesses += 1
            member_start = member.prepare_rank(leaf, start)
            end = None
            if shares is not None:
                end = self._stamp_member_pass(member, shares[way], False,
                                              member_start, rank_indices)
            if end is None:
                all_fast = False
                if runs is None:
                    runs = leader._path_runs(leaf)
                share = SdimmDevice.slice_runs(runs, way, self.ways)
                end = member.schedule_runs(share, False, member_start)
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
        for way, member in enumerate(self.members):
            end = None
            if shares is not None:
                end = self._stamp_member_pass(member, shares[way], True,
                                              list_end, rank_indices)
            if end is None:
                all_fast = False
                if runs is None:
                    runs = leader._path_runs(leaf)
                share = SdimmDevice.slice_runs(runs, way, self.ways)
                end = member.schedule_runs(share, True, list_end)
            write_ends.append(end)
        write_end = max(write_ends)
        if all_fast:
            self.fastpath_accesses += 1
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


class SplitBackend:
    """All SDIMMs serve each access together (SPLIT-2 / SPLIT-4)."""

    def __init__(self, config: SystemConfig, events: EventQueue,
                 tracer: Tracer = NULL_TRACER):
        scale = config.cpu.cpu_cycles_per_mem_cycle
        self.config = config
        self.events = events
        self.tracer = tracer
        count = config.sdimm_count
        skip = config.effective_cached_levels
        rng = DeterministicRng(config.seed, "split-backend")
        devices = [
            SdimmDevice(config, events, f"sdimm{index}", config.oram.levels,
                        skip, rng.child(f"dev{index}"), tracer=tracer)
            for index in range(count)
        ]
        burst = config.timing.tburst * scale
        self.buses = [LinkBus(burst, name=f"bus{index}", tracer=tracer)
                      for index in range(config.channels)]
        member_buses = [self.buses[index //
                                   config.organization.dimms_per_channel]
                        for index in range(count)]
        self.group = SplitGroupDevice(config, events, devices, member_buses,
                                      config.oram.crypto_latency_cycles,
                                      "split-group", tracer=tracer)
        self.devices = devices
        self.frontend = PlbFrontend(config.oram)
        self.channels = [device.channel for device in devices]
        self.counters = BackendCounters()

    def submit(self, line_address: int, now: int, is_write: bool,
               on_complete: CompletionCallback = None) -> None:
        for bus in self.buses:
            bus.advance(now)
        operations = self.frontend.translate(line_address)
        self.counters.accessorams += len(operations)
        self._next_op(len(operations), now, on_complete)

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

    def finalize(self, end_cycle: int) -> None:
        for device in self.devices:
            device.finalize(end_cycle)

    def fastpath_stats(self) -> Tuple[int, int]:
        attempts = self.group.fastpath_attempts
        fast = self.group.fastpath_accesses
        for device in self.devices:
            if device.fastpath is not None:
                attempts += device.fastpath.attempts
                fast += device.fastpath.fast_accesses
        return attempts, fast


# ----------------------------------------------------------------------
# Combined INDEP-SPLIT backend
# ----------------------------------------------------------------------

class IndepSplitBackend:
    """Independent groups of split pairs (Figure 7e)."""

    def __init__(self, config: SystemConfig, events: EventQueue,
                 tracer: Tracer = NULL_TRACER):
        scale = config.cpu.cpu_cycles_per_mem_cycle
        self.config = config
        self.events = events
        self.tracer = tracer
        per_channel = config.organization.dimms_per_channel
        group_count = config.channels
        partition_bits = log2_exact(group_count)
        local_levels = config.oram.levels - partition_bits
        skip = max(0, config.effective_cached_levels - partition_bits)
        rng = DeterministicRng(config.seed, "indep-split-backend")
        burst = config.timing.tburst * scale
        self.buses = [LinkBus(burst, name=f"bus{index}", tracer=tracer)
                      for index in range(config.channels)]
        self.groups: List[SplitGroupDevice] = []
        self.devices: List[SdimmDevice] = []
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
                config, events, members, member_buses,
                config.oram.crypto_latency_cycles,
                f"split-group{group_index}", tracer=tracer))
        self.frontend = PlbFrontend(config.oram)
        self.rng = rng.child("route")
        self.drain_probability = config.sdimm.drain_probability
        self.crypto = config.oram.crypto_latency_cycles
        self.channels = [device.channel for device in self.devices]
        self.counters = BackendCounters()

    def submit(self, line_address: int, now: int, is_write: bool,
               on_complete: CompletionCallback = None) -> None:
        for bus in self.buses:
            bus.advance(now)
        operations = self.frontend.translate(line_address)
        self.counters.accessorams += len(operations)
        self._next_op(len(operations), now, on_complete)

    def _next_op(self, remaining: int, now: int,
                 on_complete: CompletionCallback) -> None:
        if remaining == 0:
            if on_complete is not None:
                on_complete(now)
            return
        owner = self.rng.randrange(len(self.groups))
        group = self.groups[owner]
        bus = self.buses[owner]
        access_start, request_end = bus.reserve_block(now)
        arrival = request_end + self.crypto
        if self.tracer.enabled:
            self.tracer.span("ACCESS", CATEGORY_PROTOCOL, bus.name,
                             access_start, request_end)

        def done(_finish: int) -> None:
            result_start, response_end = \
                bus.reserve_block(group.last_data_ready)
            self.counters.result_blocks += 1
            if self.tracer.enabled:
                self.tracer.span("FETCH_RESULT", CATEGORY_PROTOCOL,
                                 bus.name, result_start, response_end)
            new_owner = self.rng.randrange(len(self.groups))
            for index, target in enumerate(self.groups):
                append_start, append_end = \
                    self.buses[index].reserve_block(response_end)
                self.counters.append_messages += 1
                if self.tracer.enabled:
                    self.tracer.span("APPEND", CATEGORY_PROTOCOL,
                                     self.buses[index].name, append_start,
                                     append_end)
                migrated = index == new_owner and new_owner != owner
                if migrated and self.rng.bernoulli(self.drain_probability):
                    self.counters.drain_accesses += 1
                    if self.tracer.enabled:
                        self.tracer.instant("drain", CATEGORY_PROTOCOL,
                                            target.name, append_end)
                    target.work.enqueue(append_end,
                                        target.perform_split_access)
            self._next_op(remaining - 1, response_end + self.crypto,
                          on_complete)

        group.work.enqueue(arrival, group.perform_split_access, done)

    def finalize(self, end_cycle: int) -> None:
        for device in self.devices:
            device.finalize(end_cycle)

    def fastpath_stats(self) -> Tuple[int, int]:
        attempts = fast = 0
        for group in self.groups:
            attempts += group.fastpath_attempts
            fast += group.fastpath_accesses
        for device in self.devices:
            if device.fastpath is not None:
                attempts += device.fastpath.attempts
                fast += device.fastpath.fast_accesses
        return attempts, fast


BACKEND_CLASSES = {
    DesignPoint.NONSECURE: NonSecureBackend,
    DesignPoint.FREECURSIVE: FreecursiveBackend,
    DesignPoint.INDEP_2: IndependentBackend,
    DesignPoint.INDEP_4: IndependentBackend,
    DesignPoint.SPLIT_2: SplitBackend,
    DesignPoint.SPLIT_4: SplitBackend,
    DesignPoint.INDEP_SPLIT: IndepSplitBackend,
}
