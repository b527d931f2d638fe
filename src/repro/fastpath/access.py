"""Whole-access macro replay: signature, delta table, and the driver.

:class:`AccessFastPath` serves one protocol driver (the Freecursive
backend over its striped channels, or one SDIMM device over its internal
channel).  Per access it runs a two-tier fast path:

* **Tier A** — look up a :class:`DeltaEntry` keyed on the path's row
  segments plus a clamped channel-state signature; on a hit, stamp the
  whole access (cycles, counters, bank/rank/bus post-state, trace
  events) from the precomputed deltas without touching the constraint
  chain at all.  This is the ISSUE's per-(design, path-signature,
  channel-state) table; entries are built lazily by memoizing Tier B.
* **Tier B** — :func:`~repro.fastpath.engine.stamp_pass` both passes
  flat, batch the trace events, and (when memoization is on) record the
  access as a new Tier-A entry.

If a touched rank is parked, the access returns to the caller's
event-core path untouched — nothing is committed until eligibility is
known, so the fallback is exact mid-run.  Refreshes do not force a
fallback: Tier B delegates them to the rank's own ``maybe_refresh``
exactly where ``schedule_run`` would; they only exclude the access from
the Tier-A table (the clamped signature deliberately omits the refresh
clock, so recorded deltas must be refresh-free and replay must prove no
refresh could fire before the access's write pass ends).

Signature clamping: pre-access state values that can no longer constrain
anything (a bank ready time at or before the access start, a last-ACT
older than tRRD, a bus release more than a CAS latency ago) are clamped
to a per-field floor, so all "quiet channel" states collapse into one
table entry.  Each floor is chosen so that every clamped value is inert
for the whole access *and* stays inert (and clamped) for all later
accesses — replaying a recorded post-state over a different member of
the same signature class is then observationally identical forever.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.dram.bank import ScaledTiming
from repro.dram.commands import PowerState
from repro.fastpath.engine import emit_batch, stamp_pass
from repro.obs.tracer import (CATEGORY_DRAM, CATEGORY_PROTOCOL, TraceEvent)
from repro.utils import memo

_PARKED = (PowerState.POWER_DOWN, PowerState.SELF_REFRESH)

#: Per-(config, traced) delta tables, shared by every same-shape device in
#: the process (the Independent designs run many identical SDIMMs — one
#: device's recording warms its siblings).  Bounded clear-when-full.
_DELTA_TABLES: Dict[tuple, dict] = {}
DELTA_TABLE_CAP = 4096


def delta_table_for(channels, crypto: int, traced: bool) -> dict:
    """The process-wide delta table for this channel/crypto shape.

    ``traced`` keys separate tables: entries recorded without tracing
    carry no event templates and must never serve a traced run.
    """
    channel = channels[0]
    timing = channel.timing
    key = (tuple(getattr(timing, name) for name in ScaledTiming._FIELDS),
           len(channel.ranks), len(channel.ranks[0].banks),
           channel._banks_per_group, channel._row_lines,
           len(channels), crypto, bool(traced))
    table = _DELTA_TABLES.get(key)
    if table is None:
        table = _DELTA_TABLES[key] = {}
    return table


def reset_delta_tables() -> None:
    """Drop all memoized delta entries (tests and benchmarks)."""
    _DELTA_TABLES.clear()


class DeltaEntry:
    """Everything needed to replay one recorded access at a new start.

    All times are relative to the access start; ``bursts`` is ``None``
    for entries recorded without tracing (separate table key).
    """

    __slots__ = ("rel_read_end", "rel_write_start", "rel_write_end",
                 "rel_return", "counter_deltas", "bank_post", "acts",
                 "w2r_post", "group_post", "bus_post", "note_first",
                 "bursts")

    def __init__(self, rel_read_end, rel_write_start, rel_write_end,
                 rel_return, counter_deltas, bank_post, acts, w2r_post,
                 group_post, bus_post, note_first, bursts):
        self.rel_read_end = rel_read_end
        self.rel_write_start = rel_write_start
        self.rel_write_end = rel_write_end
        self.rel_return = rel_return
        self.counter_deltas = counter_deltas
        self.bank_post = bank_post
        self.acts = acts
        self.w2r_post = w2r_post
        self.group_post = group_post
        self.bus_post = bus_post
        self.note_first = note_first
        self.bursts = bursts


def _signature(channels, pattern, start: int) -> tuple:
    """Clamped channel-state signature for ``pattern`` starting at ``start``.

    Covers exactly the pre-access state ``schedule_run`` can read during
    the access: per first-touch bank the row-buffer relation to the
    pattern's first row and the three ready times; per touched rank the
    ACT pacing state and write-to-read turnaround; per touched bank
    group the last CAS; per channel the data-bus release and whether the
    last bus owner matches the pattern's first rank.  Floors (0 for
    ready times, ``-tRRD``/``-tFAW`` for ACT pacing, ``-tCCD_L`` for
    group CAS, ``tCL - tRTRS`` for the bus) mark the point past which a
    value cannot influence the access or any later one.
    """
    parts: List[int] = []
    append = parts.append
    for ch, rank_index, bank_index, row in pattern.sig_banks:
        bank = channels[ch].ranks[rank_index].banks[bank_index]
        open_row = bank.open_row
        append(0 if open_row is None else (2 if open_row == row else 1))
        value = bank.ready_activate - start
        append(value if value > 0 else 0)
        value = bank.ready_cas - start
        append(value if value > 0 else 0)
        value = bank.ready_precharge - start
        append(value if value > 0 else 0)
    for ch, rank_index in pattern.sig_ranks:
        channel = channels[ch]
        rank = channel.ranks[rank_index]
        timing = rank._t
        floor = -timing.trrd
        value = rank._last_act_time - start
        append(value if value > floor else floor)
        history = rank._act_history
        append(len(history))
        floor = -timing.tfaw
        for issue in history:
            value = issue - start
            append(value if value > floor else floor)
        value = channel._write_to_read_ready.get(rank_index, 0) - start
        append(value if value > 0 else 0)
    for ch, rank_index, group in pattern.sig_groups:
        channel = channels[ch]
        floor = -channel.timing.tccd_l
        last = channel._last_group_cas.get((rank_index, group))
        if last is None:
            append(floor)
        else:
            value = last - start
            append(value if value > floor else floor)
    for part in pattern.per_channel:
        channel = channels[part[0]]
        timing = channel.timing
        floor = timing.tcl - timing.trtrs
        value = channel._bus_free - start
        append(value if value > floor else floor)
        last_rank = channel._last_bus_rank
        if last_rank is None:
            append(-1)
        else:
            append(0 if last_rank == part[1][0][0] else 1)
    return tuple(parts)


def _snapshot(counters) -> Tuple[int, ...]:
    return (counters.activates, counters.precharges, counters.reads,
            counters.writes, counters.row_hits, counters.row_misses,
            counters.row_conflicts, counters.busy_cycles)


class AccessFastPath:
    """Two-tier fast path for one driver's ``accessORAM`` operations."""

    __slots__ = ("channels", "channel_names", "producer", "skip_levels",
                 "crypto", "lane", "tracer", "table", "attempts",
                 "fast_accesses", "delta_hits")

    def __init__(self, channels, producer, skip_levels: int, crypto: int,
                 lane: str, tracer):
        self.channels = list(channels)
        self.channel_names = [channel.name for channel in self.channels]
        self.producer = producer
        self.skip_levels = skip_levels
        self.crypto = crypto
        self.lane = lane
        self.tracer = tracer
        self.table: Optional[dict] = (
            delta_table_for(self.channels, crypto, tracer.enabled)
            if memo.CORE.memo else None)
        self.attempts = 0
        self.fast_accesses = 0
        self.delta_hits = 0

    def try_access(self, leaf: int, start: int) -> Optional[int]:
        """Serve one access fast, or return ``None`` for the event core."""
        self.attempts += 1
        if start < 0:
            return None
        pattern = self.producer.pattern(leaf, self.skip_levels)
        per_channel = pattern.per_channel
        if not per_channel:
            return None
        channels = self.channels
        clean = True
        for ch, rank_index in pattern.sig_ranks:
            rank = channels[ch].ranks[rank_index]
            if rank.power_state in _PARKED:
                return None
            if rank.refresh_enabled and rank._next_refresh_due <= start:
                clean = False
        # ``seen`` gates the Tier-A machinery on pattern *re-occurrence*:
        # a delta entry can only ever be hit by the same segments, so
        # first-seen patterns (the overwhelming case on big trees, where
        # leaves effectively never repeat) skip the signature and the
        # recording overhead entirely.
        seen = pattern.seen + 1
        pattern.seen = seen
        table = self.table
        sig = None
        if table is not None and clean and seen > 1:
            sig = _signature(channels, pattern, start)
            entry = table.get((per_channel, sig))
            if entry is not None:
                write_start = start + entry.rel_write_start
                for ch, rank_index in pattern.sig_ranks:
                    rank = channels[ch].ranks[rank_index]
                    if rank.refresh_enabled and \
                            rank._next_refresh_due <= write_start:
                        break
                else:
                    self._replay(entry, start)
                    self.fast_accesses += 1
                    self.delta_hits += 1
                    return start + entry.rel_return
        return self._compute(pattern, sig, start, clean)

    # ------------------------------------------------------------------
    # Tier B: flat compute (+ Tier-A recording)
    # ------------------------------------------------------------------

    def _compute(self, pattern, sig, start: int, clean: bool) -> int:
        channels = self.channels
        crypto = self.crypto
        tracer = self.tracer
        traced = tracer.enabled
        per_channel = pattern.per_channel
        multi = len(per_channel) > 1
        recording = sig is not None
        if recording:
            before = [(part[0], _snapshot(channels[part[0]].counters))
                      for part in per_channel]
            act_parts: List[tuple] = []
            first_parts: List[tuple] = []
        run_count = pattern.run_count if traced and multi else 0
        read_batch = ([None] * run_count if multi else []) \
            if traced else None
        read_end = 0
        for part in per_channel:
            ch = part[0]
            part_acts = [] if recording else None
            part_firsts = {} if recording else None
            end = stamp_pass(channels[ch], part[1], False, start,
                             read_batch, part[2], part_acts, part_firsts,
                             not clean)
            if end > read_end:
                read_end = end
            if recording:
                act_parts.append((ch, part_acts))
                first_parts.append((ch, part_firsts))
        write_start = read_end + crypto
        # One per-rank scan decides both prongs: whether the write pass
        # needs per-segment refresh checks in ``stamp_pass`` and — because
        # the signature omits the refresh clock — whether this access is
        # recordable (``clean`` already proved the read pass refresh-free
        # for that purpose).  The access still stamps fast either way.
        write_clean = True
        for ch, rank_index in pattern.sig_ranks:
            rank = channels[ch].ranks[rank_index]
            if rank.refresh_enabled and \
                    rank._next_refresh_due <= write_start:
                write_clean = False
                break
        if not write_clean:
            recording = False
        write_batch = ([None] * run_count if multi else []) \
            if traced else None
        write_end = 0
        for part in per_channel:
            ch = part[0]
            part_acts = [] if recording else None
            end = stamp_pass(channels[ch], part[1], True, write_start,
                             write_batch, part[2], part_acts, None,
                             not write_clean)
            if end > write_end:
                write_end = end
            if recording:
                act_parts.append((ch, part_acts))
        return_time = write_end + crypto
        bursts = None
        if traced:
            events = read_batch
            events.extend(write_batch)
            if recording:
                name_index = {name: index for index, name
                              in enumerate(self.channel_names)}
                bursts = tuple(
                    (name_index[event.lane], event.start - start,
                     event.duration, event.args)
                    for event in events)
            events.append(TraceEvent("span", "PATH_READ", CATEGORY_PROTOCOL,
                                     self.lane, start, read_end - start))
            events.append(TraceEvent("span", "PATH_WRITE", CATEGORY_PROTOCOL,
                                     self.lane, write_start,
                                     write_end - write_start))
            emit_batch(tracer, events)
        if recording:
            table = self.table
            counter_deltas = []
            for ch, snap in before:
                now = _snapshot(channels[ch].counters)
                counter_deltas.append(
                    (ch, tuple(a - b for a, b in zip(now, snap))))
            bank_post = []
            for ch, rank_index, bank_index, _row in pattern.sig_banks:
                bank = channels[ch].ranks[rank_index].banks[bank_index]
                bank_post.append(
                    (ch, rank_index, bank_index, bank.open_row,
                     bank.ready_activate - start, bank.ready_cas - start,
                     bank.ready_precharge - start))
            acts = tuple((ch, rank_index, issue - start)
                         for ch, part_acts in act_parts
                         for rank_index, issue in part_acts)
            w2r_post = tuple(
                (ch, rank_index,
                 channels[ch]._write_to_read_ready[rank_index] - start)
                for ch, rank_index in pattern.sig_ranks)
            group_post = tuple(
                (ch, rank_index, group,
                 channels[ch]._last_group_cas[(rank_index, group)] - start)
                for ch, rank_index, group in pattern.sig_groups)
            bus_post = tuple(
                (part[0], channels[part[0]]._bus_free - start,
                 channels[part[0]]._last_bus_rank)
                for part in per_channel)
            note_first = tuple(
                (ch, rank_index, data_end - start)
                for ch, part_firsts in first_parts
                for rank_index, data_end in part_firsts.items())
            entry = DeltaEntry(
                read_end - start, write_start - start, write_end - start,
                return_time - start, tuple(counter_deltas),
                tuple(bank_post), acts, w2r_post, group_post, bus_post,
                note_first, bursts)
            if len(table) >= DELTA_TABLE_CAP:
                table.clear()
            table[(per_channel, sig)] = entry
        self.fast_accesses += 1
        return return_time

    # ------------------------------------------------------------------
    # Tier A: delta replay
    # ------------------------------------------------------------------

    def _replay(self, entry: DeltaEntry, start: int) -> None:
        channels = self.channels
        for ch, rank_index, bank_index, row, ra, rc, rp in entry.bank_post:
            bank = channels[ch].ranks[rank_index].banks[bank_index]
            bank.open_row = row
            bank.ready_activate = start + ra
            bank.ready_cas = start + rc
            bank.ready_precharge = start + rp
        for ch, rank_index, rel in entry.acts:
            rank = channels[ch].ranks[rank_index]
            issue = start + rel
            rank._act_history.append(issue)
            rank._last_act_time = issue
        for ch, rank_index, rel in entry.w2r_post:
            channels[ch]._write_to_read_ready[rank_index] = start + rel
        for ch, rank_index, group, rel in entry.group_post:
            channels[ch]._last_group_cas[(rank_index, group)] = start + rel
        for ch, rel, last_rank in entry.bus_post:
            channel = channels[ch]
            channel._bus_free = start + rel
            channel._last_bus_rank = last_rank
            channel._last_bus_was_write = True
        for ch, deltas in entry.counter_deltas:
            counters = channels[ch].counters
            counters.activates += deltas[0]
            counters.precharges += deltas[1]
            counters.reads += deltas[2]
            counters.writes += deltas[3]
            counters.row_hits += deltas[4]
            counters.row_misses += deltas[5]
            counters.row_conflicts += deltas[6]
            counters.busy_cycles += deltas[7]
        for ch, rank_index, rel in entry.note_first:
            channels[ch].ranks[rank_index].note_active(start + rel)
        tracer = self.tracer
        if tracer.enabled:
            names = self.channel_names
            events = [TraceEvent("span", "burst", CATEGORY_DRAM, names[ch],
                                 start + rel, duration, args)
                      for ch, rel, duration, args in entry.bursts]
            events.append(TraceEvent("span", "PATH_READ", CATEGORY_PROTOCOL,
                                     self.lane, start, entry.rel_read_end))
            events.append(TraceEvent(
                "span", "PATH_WRITE", CATEGORY_PROTOCOL, self.lane,
                start + entry.rel_write_start,
                entry.rel_write_end - entry.rel_write_start))
            emit_batch(tracer, events)
