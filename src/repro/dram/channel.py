"""Channel model: shared command/data buses over a set of ranks.

A :class:`Channel` is used both for the CPU's main memory channels and for
each SDIMM's *internal* channel between the secure buffer and its DRAM
chips (the buffer has the same pin budget as an LRDIMM buffer, so the
internal channel has the same width and speed).  The ``on_dimm`` flag tags
transfers for the energy model, which charges on-DIMM I/O far less than
cross-channel I/O.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional

from repro.config import DramOrganization, DramTiming
from repro.dram.address import DecodedAddress
from repro.dram.bank import ScaledTiming
from repro.dram.commands import PARKED, RowBufferOutcome
from repro.dram.rank import Rank
from repro.dram.stamp import stamp_pass
from repro.obs.tracer import CATEGORY_DRAM, NULL_TRACER, Tracer
from repro.utils import memo

_HIT = RowBufferOutcome.HIT
_MISS = RowBufferOutcome.MISS
_CONFLICT = RowBufferOutcome.CONFLICT


@dataclass(eq=False)
class MemoryRequest:
    """One cache-line request presented to a channel scheduler.

    ``on_complete(data_end)``, if given, runs when the request's data
    burst ends.  Requests compare by identity, so the scheduler's
    ``list.remove`` finds the picked one without comparing fields.
    """

    address: DecodedAddress
    is_write: bool
    arrival_time: int
    on_complete: Optional[Callable[[int], None]] = None
    completion_time: Optional[int] = None


class AccessTiming(NamedTuple):
    """When one column access actually happened on the channel.

    A NamedTuple rather than a frozen dataclass: one is built per
    scheduled run and tuple construction skips the per-field
    ``object.__setattr__`` a frozen dataclass pays.
    """

    cas_issue: int
    data_start: int
    data_end: int
    outcome: RowBufferOutcome


class Channel:
    """One DDR3 channel: ranks, bus arbitration, and event counters."""

    def __init__(self, timing: DramTiming, organization: DramOrganization,
                 scale: int = 2, refresh_enabled: bool = False,
                 on_dimm: bool = False, name: str = "channel",
                 tracer: Tracer = NULL_TRACER):
        self.name = name
        self.tracer = tracer
        self.on_dimm = on_dimm
        self.timing = ScaledTiming(timing, scale)
        self.organization = organization
        self.ranks = [Rank(self.timing, organization.banks_per_rank,
                           refresh_enabled)
                      for _ in range(organization.ranks_per_channel)]
        self._bus_free = 0
        self._last_bus_rank: Optional[int] = None
        self._last_bus_was_write = False
        self._write_to_read_ready: Dict[int, int] = {}
        # DDR4 bank-group CAS pacing: last CAS time per (rank, group)
        self._banks_per_group = (organization.banks_per_rank //
                                 max(1, organization.bank_groups))
        self._last_group_cas: Dict[tuple, int] = {}
        self._row_lines = organization.row_bytes // 64
        self.counters = ChannelCounters()

    def _bank_group(self, address: DecodedAddress) -> tuple:
        return (address.rank, address.bank // self._banks_per_group)

    def _group_cas_ready(self, address: DecodedAddress) -> int:
        """Earliest CAS honouring same-bank-group tCCD_L spacing."""
        last = self._last_group_cas.get(self._bank_group(address))
        if last is None:
            return 0
        return last + self.timing.tccd_l

    def _note_cas(self, address: DecodedAddress, issue_time: int) -> None:
        self._last_group_cas[self._bank_group(address)] = issue_time

    # ------------------------------------------------------------------
    # Core scheduling primitives
    # ------------------------------------------------------------------

    def schedule_access(self, address: DecodedAddress, is_write: bool,
                        earliest: int) -> AccessTiming:
        """Schedule one column access no earlier than ``earliest``.

        The FR-FCFS scheduler's per-request primitive: a one-line run
        through :meth:`schedule_run`'s private helper, without the run
        checks a single line cannot fail.
        """
        if memo.CORE.reference:
            return self._schedule_run_reference(address, 1, is_write,
                                                earliest)
        return self._stamp_run(address, 1, is_write, earliest)

    def schedule_run(self, address: DecodedAddress, count: int,
                     is_write: bool, earliest: int) -> AccessTiming:
        """Schedule ``count`` back-to-back column accesses in one row.

        The run starts at ``address`` and streams consecutive columns —
        exactly what the subtree-packed ORAM layout produces.  Equivalent to
        ``count`` one-line accesses (one potential PRE/ACT, then CAS
        streaming at the burst rate) but O(1), which is what makes a
        pure-Python path access affordable.

        Applies the full DDR3 constraint chain — power-state exit, overdue
        refresh, PRE/ACT as the row buffer demands, tRRD/tFAW pacing,
        CAS-to-data latency, data-bus occupancy, rank-to-rank switch and
        write-to-read turnaround — and commits the resulting state.  The
        chain itself is :func:`repro.dram.stamp.stamp_pass`;
        ``REPRO_REFERENCE_CORE=1`` selects the helper-per-constraint
        :meth:`_schedule_run_reference` instead, and
        ``tests/test_refcore.py`` checks the two are cycle-identical.
        """
        if memo.CORE.reference:
            return self._schedule_run_reference(address, count, is_write,
                                                earliest)
        if count < 1:
            raise ValueError("run must cover at least one line")
        if address.column + count > self._row_lines:
            raise ValueError("run crosses a row boundary")
        return self._stamp_run(address, count, is_write, earliest)

    def _stamp_run(self, address: DecodedAddress, count: int,
                   is_write: bool, earliest: int) -> AccessTiming:
        """One run through :func:`stamp_pass` as a one-sub-run segment.

        Wake and refresh come first, then the outcome is read off the
        bank: both close the row, so classifying earlier would call a
        miss a conflict.  ``stamp_pass`` re-checks the refresh clock,
        which the ``maybe_refresh`` here has already moved past ``start``.
        """
        rank_index = address.rank
        rank = self.ranks[rank_index]
        start = earliest if earliest > 0 else 0
        if rank.power_state in PARKED:
            start = rank.wake(start)
        if rank.refresh_enabled and rank._next_refresh_due <= start:
            start = rank.maybe_refresh(start)
        row = address.row
        open_row = rank.banks[address.bank].open_row
        if open_row == row:
            outcome = _HIT
        elif open_row is None:
            outcome = _MISS
        else:
            outcome = _CONFLICT
        data_end = stamp_pass(
            self, ((rank_index, address.bank, row, count, (count,)),),
            is_write, start)
        t = self.timing
        data_start = data_end - t.tburst
        if count > 1:
            stride = t.tburst if t.tburst > t.tccd_l else t.tccd_l
            data_start -= (count - 1) * stride
        if self.tracer.enabled:
            self.tracer.span("burst", CATEGORY_DRAM, self.name,
                             data_start, data_end, rank=rank_index,
                             bank=address.bank, row=row,
                             write=int(is_write), lines=count,
                             outcome=outcome.value)
        cas_issue = data_start - (t.tcwl if is_write else t.tcl)
        return AccessTiming(cas_issue, data_start, data_end, outcome)

    def _schedule_run_reference(self, address: DecodedAddress, count: int,
                                is_write: bool, earliest: int) -> AccessTiming:
        """Reference :meth:`schedule_run`: one helper per DDR constraint.

        Kept as the readable specification of the constraint chain and as
        the oracle of the cross-core checks (``tests/test_refcore.py``,
        ``benchmarks/bench_fastpath.py``).
        """
        if count < 1:
            raise ValueError("run must cover at least one line")
        if address.column + count > self.organization.row_bytes // 64:
            raise ValueError("run crosses a row boundary")
        rank = self.ranks[address.rank]
        start = max(earliest, 0)
        start = rank.wake(start)
        start = rank.maybe_refresh(start)
        bank = rank.banks[address.bank]

        outcome = bank.classify(address.row)
        if outcome is RowBufferOutcome.CONFLICT:
            precharge_time = max(start, bank.ready_precharge)
            bank.precharge(precharge_time)
            self.counters.precharges += 1
        if bank.open_row is None:
            activate_time = max(start, bank.ready_activate)
            activate_time = rank.earliest_activate(activate_time)
            bank.activate(activate_time, address.row)
            rank.record_activate(activate_time)
            self.counters.activates += 1

        cas_latency = self.timing.tcwl if is_write else self.timing.tcl
        cas_issue = max(start, bank.ready_cas,
                        self._group_cas_ready(address))
        cas_issue = max(cas_issue, self._bus_ready(address.rank) - cas_latency)
        if not is_write:
            cas_issue = max(cas_issue,
                            self._write_to_read_ready.get(address.rank, 0))

        # within one bank, CAS pace at max(tBURST, tCCD_L): DDR4 streaming
        # inside one bank group leaves bubbles (DDR3: equal, gapless)
        stride = max(self.timing.tburst, self.timing.tccd_l)
        data_start = cas_issue + cas_latency
        data_end = data_start + (count - 1) * stride + self.timing.tburst
        last_cas = cas_issue + (count - 1) * stride

        if is_write:
            bank.write(last_cas)
            self._write_to_read_ready[address.rank] = (
                data_end + self.timing.twtr)
            self.counters.writes += count
        else:
            bank.read(last_cas)
            self.counters.reads += count
        self._note_cas(address, last_cas)
        self._bus_free = data_end
        self._last_bus_rank = address.rank
        self._last_bus_was_write = is_write
        self.counters.note_outcome(outcome)
        if count > 1:
            self.counters.row_hits += count - 1
        self.counters.busy_cycles += count * self.timing.tburst
        rank.note_activity(data_end)
        if self.tracer.enabled:
            self.tracer.span("burst", CATEGORY_DRAM, self.name,
                             data_start, data_end, rank=address.rank,
                             bank=address.bank, row=address.row,
                             write=int(is_write), lines=count,
                             outcome=outcome.value)
        return AccessTiming(cas_issue, data_start, data_end, outcome)

    def _bus_ready(self, rank_index: int) -> int:
        """Earliest time a new data burst may start on the shared bus."""
        ready = self._bus_free
        if self._last_bus_rank is not None and self._last_bus_rank != rank_index:
            ready += self.timing.trtrs
        return ready

    @property
    def bus_free_at(self) -> int:
        return self._bus_free

    def finalize(self, end_time: int) -> None:
        """Close out rank residency accounting at simulation end."""
        for rank in self.ranks:
            rank.note_activity(end_time)
            rank.finalize(end_time)


class ChannelCounters:
    """Event counts the energy model and reports consume."""

    def __init__(self):
        self.activates = 0
        self.precharges = 0
        self.reads = 0
        self.writes = 0
        self.row_hits = 0
        self.row_misses = 0
        self.row_conflicts = 0
        self.busy_cycles = 0
        self.command_slots = 0

    def note_outcome(self, outcome: RowBufferOutcome) -> None:
        if outcome is RowBufferOutcome.HIT:
            self.row_hits += 1
        elif outcome is RowBufferOutcome.MISS:
            self.row_misses += 1
        else:
            self.row_conflicts += 1

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / self.accesses if self.accesses else 0.0

    def as_dict(self) -> Dict[str, int]:
        return {
            "activates": self.activates,
            "precharges": self.precharges,
            "reads": self.reads,
            "writes": self.writes,
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
            "row_conflicts": self.row_conflicts,
            "busy_cycles": self.busy_cycles,
            "command_slots": self.command_slots,
        }
