"""The main-channel link bus used by SDIMM designs.

In an SDIMM system the CPU's memory channel no longer carries path
shuffles, only protocol messages: encrypted blocks (ACCESS payloads,
FETCH_RESULT returns, APPENDs), metadata lines (Split), and short commands.

The bus is a slotted resource with *backfill*: the memory controller packs
a message into the earliest idle gap at or after its requested time, so a
response scheduled far in the future (the SDIMM is still shuffling) does
not block an unrelated request from using the idle bus in between.  Busy
intervals are kept sorted and disjoint; :meth:`advance` prunes intervals
that can no longer be backfilled because simulation time has passed them.
"""

from __future__ import annotations

import bisect
from typing import List, Tuple

from repro.obs.tracer import CATEGORY_BUS, NULL_TRACER, Tracer


class LinkBus:
    """One DDR channel's data bus as seen by the SDIMM protocols."""

    def __init__(self, burst_cycles: int, command_cycles: int = 1,
                 name: str = "bus", tracer: Tracer = NULL_TRACER):
        if burst_cycles < 1:
            raise ValueError("burst must take at least one cycle")
        self.name = name
        self.tracer = tracer
        self.burst_cycles = burst_cycles
        self.command_cycles = command_cycles
        self._busy: List[Tuple[int, int]] = []   # sorted disjoint intervals
        self._prune_before = 0
        self.block_transfers = 0
        self.line_transfers = 0
        self.command_slots = 0
        self.busy_cycles = 0
        self.stall_cycles = 0
        self.stalls_injected = 0

    # ------------------------------------------------------------------

    def reserve_block(self, earliest: int) -> Tuple[int, int]:
        """Transfer one 64 B block (plus its command); returns (start, end)."""
        self.block_transfers += 1
        start, end = self._reserve(earliest,
                                   self.burst_cycles + self.command_cycles)
        if self.tracer.enabled:
            self.tracer.span("xfer_block", CATEGORY_BUS, self.name,
                             start, end)
        return start, end

    def reserve_lines(self, earliest: int, count: int) -> Tuple[int, int]:
        """Transfer ``count`` cache-line-sized bursts back to back."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return earliest, earliest
        self.line_transfers += count
        start, end = self._reserve(earliest, count * self.burst_cycles)
        if self.tracer.enabled:
            self.tracer.span("xfer_lines", CATEGORY_BUS, self.name,
                             start, end, lines=count)
        return start, end

    def command_slot(self, earliest: int) -> int:
        """A short command (PROBE and friends) on the command bus."""
        self.command_slots += 1
        # command/address wires are separate from data; no data-bus time
        slot = max(earliest, 0)
        if self.tracer.enabled:
            self.tracer.instant("command", CATEGORY_BUS, self.name, slot)
        return slot

    def inject_stall(self, start: int, cycles: int) -> Tuple[int, int]:
        """Reserve a dead interval: a transient SDIMM buffer stall.

        Fault injection (repro.faults) uses this to model the buffer chip
        holding the channel without transferring data — later reservations
        backfill around or after it exactly as they would a real transfer.
        Returns the occupied ``(start, end)`` interval.
        """
        if cycles < 1:
            raise ValueError("a stall must occupy at least one cycle")
        start, end = self._reserve(max(start, 0), cycles)
        self.stall_cycles += cycles
        self.stalls_injected += 1
        if self.tracer.enabled:
            self.tracer.span("stall", CATEGORY_BUS, self.name, start, end,
                             injected=1)
        return start, end

    def advance(self, now: int) -> None:
        """Tell the bus simulation time reached ``now``.

        Intervals ending before ``now`` can never be backfilled again (all
        future requests ask for ``earliest >= now``), so they are dropped to
        keep allocation fast.
        """
        if now > self._prune_before:
            self._prune_before = now
        busy = self._busy
        prune_before = self._prune_before
        # sorted and disjoint, so the ends are sorted too: the dead
        # intervals are a prefix
        dead = 0
        while dead < len(busy) and busy[dead][1] < prune_before:
            dead += 1
        if dead:
            del busy[:dead]

    # ------------------------------------------------------------------

    def _reserve(self, earliest: int, duration: int) -> Tuple[int, int]:
        earliest = max(earliest, 0)
        start = self._find_gap(earliest, duration)
        self._insert(start, start + duration)
        self.busy_cycles += duration
        return start, start + duration

    def _find_gap(self, earliest: int, duration: int) -> int:
        busy = self._busy
        candidate = earliest
        # skip intervals that end at or before the candidate
        index = bisect.bisect_right(busy, (candidate, candidate)) - 1
        if index < 0:
            index = 0
        for position in range(index, len(busy)):
            busy_start, busy_end = busy[position]
            if busy_end <= candidate:
                continue
            if busy_start - candidate >= duration:
                return candidate
            candidate = busy_end
        return candidate

    def _insert(self, start: int, end: int) -> None:
        """Add ``[start, end)``, which :meth:`_find_gap` placed in a gap.

        The list stays sorted, disjoint and never touching, and the new
        interval overlaps nothing — so only its two neighbours can merge
        with it, in place.
        """
        busy = self._busy
        index = bisect.bisect_left(busy, (start, end))
        low = high = index
        if index > 0 and busy[index - 1][1] == start:
            low = index - 1
            start = busy[low][0]
        if index < len(busy) and busy[index][0] == end:
            high = index + 1
            end = busy[index][1]
        busy[low:high] = [(start, end)]

    @property
    def free_at(self) -> int:
        """End of the last reservation (idle gaps may exist before it)."""
        return self._busy[-1][1] if self._busy else 0

    @property
    def total_transfers(self) -> int:
        return self.block_transfers + self.line_transfers
