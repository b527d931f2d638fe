"""Whole-access macro replay: the per-driver fast-path entry point.

:class:`AccessFastPath` serves one protocol driver (the Freecursive
backend over its striped channels, or one SDIMM device over its internal
channel).  Per access it checks that no touched rank is parked, stamps
the read pass and the write pass flat with
:func:`~repro.fastpath.engine.stamp_pass` (one call per touched
channel), and commits the burst and protocol trace events as one batch.

If a touched rank is parked, the access returns to the caller's
event-core path untouched — nothing is committed until eligibility is
known, so the fallback is exact mid-run.  Refreshes do not force a
fallback: ``stamp_pass`` delegates them to the rank's own
``maybe_refresh`` exactly where the reference chain would.
"""

from __future__ import annotations

from typing import Optional

from repro.dram.commands import PowerState
from repro.fastpath.engine import emit_batch, stamp_pass
from repro.obs.tracer import CATEGORY_PROTOCOL, TraceEvent

_PARKED = (PowerState.POWER_DOWN, PowerState.SELF_REFRESH)


def reset_delta_tables() -> None:
    """No-op: the fast path keeps no state from one access to the next.

    ``perfbench/workloads.py`` calls it between points.  Path ORAM maps
    every access to a fresh uniform leaf, so a cache keyed by path would
    not hit at the paper's tree sizes; none is kept.
    """


class AccessFastPath:
    """Flat fast path for one driver's ``accessORAM`` operations."""

    __slots__ = ("channels", "producer", "skip_levels", "crypto", "lane",
                 "tracer", "attempts", "fast_accesses")

    def __init__(self, channels, producer, skip_levels: int, crypto: int,
                 lane: str, tracer):
        self.channels = list(channels)
        self.producer = producer
        self.skip_levels = skip_levels
        self.crypto = crypto
        self.lane = lane
        self.tracer = tracer
        self.attempts = 0
        self.fast_accesses = 0

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
        for ch, rank_index in pattern.sig_ranks:
            if channels[ch].ranks[rank_index].power_state in _PARKED:
                return None
        traced = self.tracer.enabled
        multi = len(per_channel) > 1
        run_count = pattern.run_count if traced and multi else 0
        read_batch = ([None] * run_count if multi else []) \
            if traced else None
        read_end = 0
        for ch, segments, slots in per_channel:
            end = stamp_pass(channels[ch], segments, False, start,
                             read_batch, slots)
            if end > read_end:
                read_end = end
        write_start = read_end + self.crypto
        write_batch = ([None] * run_count if multi else []) \
            if traced else None
        write_end = 0
        for ch, segments, slots in per_channel:
            end = stamp_pass(channels[ch], segments, True, write_start,
                             write_batch, slots)
            if end > write_end:
                write_end = end
        if traced:
            events = read_batch
            events.extend(write_batch)
            events.append(TraceEvent("span", "PATH_READ", CATEGORY_PROTOCOL,
                                     self.lane, start, read_end - start))
            events.append(TraceEvent("span", "PATH_WRITE", CATEGORY_PROTOCOL,
                                     self.lane, write_start,
                                     write_end - write_start))
            emit_batch(self.tracer, events)
        self.fast_accesses += 1
        return write_end + self.crypto
