"""The flat pass engine: the one optimized DDR constraint chain.

:func:`stamp_pass` applies the DDR3 constraint chain — overdue refresh,
PRE/ACT as the row buffer demands, tRRD/tFAW pacing, same-group tCCD_L,
CAS-to-data latency, data-bus occupancy, rank-to-rank switch and
write-to-read turnaround — once per **row segment** of one pass (see
:mod:`repro.fastpath.runs`), with the timing fields, bus state and
counters hoisted into locals.  It collects the burst trace events —
still one per sub-run — into a plain list instead of pushing them
through the tracer one at a time; :func:`emit_batch` then commits such a
list, straight into a :class:`CollectingTracer`'s event list.
:meth:`repro.dram.channel.Channel.schedule_run` and
:meth:`~repro.dram.channel.Channel.schedule_access` stamp their single
run through it too, so the only other copy of the chain is the
helper-per-constraint ``Channel._schedule_run_reference``.

Why a segment stamps as one run: a sub-run that follows another of the
same pass on the same (rank, bank, row) is a row hit with no ACT, and
every constraint on its CAS resolves to ``last_cas + max(tBURST,
tCCD_L)`` — the bank's ``ready_cas`` and the group's last CAS give
``last_cas + tCCD_L``, the data bus gives ``last_cas + tBURST`` (same
rank, no switch), write-to-read does not move inside a pass, and no
refresh can fall due (the first sub-run's check already moved the
rank's refresh clock past the pass start).  So hits, lines, busy cycles
and all post-state equal one run of the summed length; only the first
sub-run's ``data_end`` (the residency transition) and the per-sub-run
burst events need the sub-run lengths.

Exactness contract: for an *eligible* pass (no touched rank parked —
callers check via :func:`pass_eligible`; refreshes are handled inline),
``stamp_pass`` leaves every bank, rank, bus, and counter field
byte-identical to a ``_schedule_run_reference`` loop over the segments'
sub-runs, and the batched events are byte-identical to the tracer's.
``tests/test_fastpath_stamp.py`` and the differential tests against
``REPRO_REFERENCE_CORE=1`` pin this.
"""

from __future__ import annotations

from typing import List, Optional

from repro.dram.commands import PARKED, PowerState
from repro.obs.tracer import CATEGORY_DRAM, CollectingTracer, TraceEvent

_HIT = "hit"
_MISS = "miss"
_CONFLICT = "conflict"
_ACTIVE = PowerState.ACTIVE_STANDBY


def pass_eligible(channel, rank_indices, earliest: int) -> bool:
    """True when a pass starting at ``earliest`` cannot hit a rank wake.

    ``schedule_run`` consults two pieces of rank state before the
    deterministic constraint chain: a parked power state (wake latency +
    refresh-schedule restart) and an overdue refresh.  Refreshes are
    handled inline by :func:`stamp_pass` via the rank's own
    ``maybe_refresh`` — only a parked rank forces the event core.
    """
    ranks = channel.ranks
    for rank_index in rank_indices:
        if ranks[rank_index].power_state in PARKED:
            return False
    return True


def stamp_pass(channel, segments, is_write: bool, earliest: int,
               batch: Optional[list] = None, slots=None) -> int:
    """Stamp one pass of ``segments`` on ``channel``; return its end cycle.

    ``segments`` are ``(rank, bank, row, lines, counts)`` row segments
    (one channel's share of a :class:`~repro.fastpath.runs.PathPattern`).
    Burst events — one per sub-run — append to ``batch`` when given, or
    land at ``batch[slots[i]]`` when ``slots`` maps sub-runs back to a
    multi-channel emission order.

    The caller must have established :func:`pass_eligible`; this body is
    the reference constraint chain with wake elided (no touched rank is
    parked), refresh delegated to the rank's own ``maybe_refresh`` when
    due, and the bank state machine inlined.
    """
    t = channel.timing
    tburst = t.tburst
    tccd_l = t.tccd_l
    stride = tburst if tburst > tccd_l else tccd_l
    cas_latency = t.tcwl if is_write else t.tcl
    # data_end of a sub-run of ``count`` lines whose first CAS issues at
    # ``cas``: cas + (count - 1) * stride + tail
    tail = cas_latency + tburst - stride
    trp = t.trp
    trcd = t.trcd
    tras = t.tras
    trc = t.trc
    trrd = t.trrd
    tfaw = t.tfaw
    trtrs = t.trtrs
    if is_write:
        write_recovery = t.tcwl + tburst + t.twr
        twtr = t.twtr
        trtp = 0
    else:
        write_recovery = twtr = 0
        trtp = t.trtp
    ranks = channel.ranks
    banks_per_group = channel._banks_per_group
    last_group_cas = channel._last_group_cas
    write_to_read = channel._write_to_read_ready
    bus_free = channel._bus_free
    last_bus_rank = channel._last_bus_rank
    channel_name = channel.name
    start = earliest if earliest > 0 else 0
    write_flag = 1 if is_write else 0
    activates = precharges = row_hits = row_misses = row_conflicts = 0
    total_lines = 0
    end = 0
    slot_index = 0
    for rank_index, bank_index, row, lines, counts in segments:
        rank = ranks[rank_index]
        run_start = start
        if rank.refresh_enabled and rank._next_refresh_due <= run_start:
            # ``maybe_refresh`` is a strict no-op when nothing is due, so
            # gating on the due time makes this call-for-call identical
            # to the reference's unconditional one.
            run_start = rank.maybe_refresh(run_start)
        bank = rank.banks[bank_index]
        open_row = bank.open_row
        if open_row == row:
            outcome = _HIT
            row_hits += 1
        else:
            if open_row is None:
                outcome = _MISS
                row_misses += 1
            else:
                outcome = _CONFLICT
                row_conflicts += 1
                precharges += 1
                ready = bank.ready_precharge
                ready = (run_start if run_start > ready else ready) + trp
                if ready > bank.ready_activate:
                    bank.ready_activate = ready
            ready = bank.ready_activate
            candidate = run_start if run_start > ready else ready
            ready = rank._last_act_time + trrd
            if ready > candidate:
                candidate = ready
            history = rank._act_history
            if len(history) == history.maxlen:
                ready = history[0] + tfaw
                if ready > candidate:
                    candidate = ready
            bank.open_row = row
            bank.ready_cas = candidate + trcd
            bank.ready_precharge = candidate + tras
            bank.ready_activate = candidate + trc
            history.append(candidate)
            rank._last_act_time = candidate
            activates += 1
        cas_issue = run_start
        ready = bank.ready_cas
        if ready > cas_issue:
            cas_issue = ready
        group = (rank_index, bank_index // banks_per_group)
        last = last_group_cas.get(group)
        if last is not None:
            ready = last + tccd_l
            if ready > cas_issue:
                cas_issue = ready
        ready = bus_free
        if last_bus_rank is not None and last_bus_rank != rank_index:
            ready += trtrs
        ready -= cas_latency
        if ready > cas_issue:
            cas_issue = ready
        if not is_write:
            ready = write_to_read.get(rank_index, 0)
            if ready > cas_issue:
                cas_issue = ready
        last_cas = cas_issue + (lines - 1) * stride
        data_end = last_cas + cas_latency + tburst
        if is_write:
            ready = last_cas + write_recovery
            if ready > bank.ready_precharge:
                bank.ready_precharge = ready
            write_to_read[rank_index] = data_end + twtr
        else:
            ready = last_cas + trtp
            if ready > bank.ready_precharge:
                bank.ready_precharge = ready
        ready = last_cas + tccd_l
        if ready > bank.ready_cas:
            bank.ready_cas = ready
        last_group_cas[group] = last_cas
        bus_free = data_end
        last_bus_rank = rank_index
        if lines > 1:
            row_hits += lines - 1
        total_lines += lines
        if rank.power_state is not _ACTIVE:
            # ``note_active`` early-exits when the rank is already in
            # active standby (the steady state) or parked; eligibility
            # excluded parked ranks, so this guard elides only no-ops —
            # and only the first sub-run's call can be a transition.
            rank.note_active(cas_issue + counts[0] * stride + tail)
        if data_end > end:
            end = data_end
        if batch is not None:
            cas = cas_issue
            for count in counts:
                data_start = cas + cas_latency
                cas += count * stride
                event = TraceEvent(
                    "span", "burst", CATEGORY_DRAM, channel_name,
                    data_start, cas + tail - data_start,
                    {"rank": rank_index, "bank": bank_index, "row": row,
                     "write": write_flag, "lines": count,
                     "outcome": outcome})
                if slots is None:
                    batch.append(event)
                else:
                    batch[slots[slot_index]] = event
                    slot_index += 1
                outcome = _HIT
    channel._bus_free = bus_free
    channel._last_bus_rank = last_bus_rank
    channel._last_bus_was_write = is_write
    counters = channel.counters
    counters.activates += activates
    counters.precharges += precharges
    if is_write:
        counters.writes += total_lines
    else:
        counters.reads += total_lines
    counters.row_hits += row_hits
    counters.row_misses += row_misses
    counters.row_conflicts += row_conflicts
    counters.busy_cycles += total_lines * tburst
    return end


def emit_batch(tracer, events: List[TraceEvent]) -> None:
    """Commit a batch of prebuilt span events through ``tracer``.

    Equivalent to calling ``tracer.span(...)`` once per event, in order,
    but appends straight to a :class:`CollectingTracer`'s list.  Any
    other enabled tracer gets per-event ``span`` calls (exact, just not
    batched).
    """
    if type(tracer) is CollectingTracer:
        tracer.events.extend(events)
    elif tracer.enabled:
        for event in events:
            tracer.span(event.name, event.category, event.lane,
                        event.start, event.start + event.duration,
                        **event.args)
