"""Whole-path access: the one place a path pass picks stamp or walk.

:class:`AccessFastPath` serves one protocol driver (the Freecursive
backend over its striped channels, or one SDIMM device over its internal
channel).  :meth:`~AccessFastPath.access` performs one ``accessORAM``'s
DRAM work: path read, crypto, path write-back.  Off the reference core it
first tries :meth:`~AccessFastPath.try_access`, which checks that no
touched rank is parked, stamps the read pass and the write pass flat with
:func:`~repro.dram.stamp.stamp_pass` (one call per touched channel), and
commits the burst and protocol trace events as one batch.

If a touched rank is parked, or the reference core runs, the access walks
the layout's runs through ``Channel.schedule_run`` instead — nothing is
committed until eligibility is known, so the fallback is exact mid-run.
Refreshes do not force a fallback: ``stamp_pass`` delegates them to the
rank's own ``maybe_refresh`` exactly where the reference chain would.
"""

from __future__ import annotations

from typing import Optional

from repro.dram.commands import PARKED
from repro.dram.stamp import emit_batch, stamp_pass
from repro.obs.tracer import CATEGORY_PROTOCOL, TraceEvent
from repro.utils import memo


def reset_delta_tables() -> None:
    """No-op: the fast path keeps no state from one access to the next.

    ``perfbench/workloads.py`` calls it between points.  Path ORAM maps
    every access to a fresh uniform leaf, so a cache keyed by path would
    not hit at the paper's tree sizes; none is kept.
    """


class AccessFastPath:
    """One driver's ``accessORAM`` path passes, stamped or walked.

    ``runs(leaf, skip_levels)`` gives the layout's ``(channel,
    coordinates, count)`` runs of a path; ``producer`` gives the same
    path as row segments (:mod:`repro.fastpath.runs`).
    """

    __slots__ = ("channels", "producer", "runs", "skip_levels", "crypto",
                 "lane", "tracer", "attempts", "fast_accesses")

    def __init__(self, channels, producer, runs, skip_levels: int,
                 crypto: int, lane: str, tracer):
        self.channels = list(channels)
        self.producer = producer
        self.runs = runs
        self.skip_levels = skip_levels
        self.crypto = crypto
        self.lane = lane
        self.tracer = tracer
        self.attempts = 0
        self.fast_accesses = 0

    def access(self, leaf: int, start: int) -> int:
        """One path read, crypto and write-back; returns the end cycle."""
        if not memo.CORE.reference:
            end = self.try_access(leaf, start)
            if end is not None:
                return end
        runs = self.runs(leaf, self.skip_levels)
        channels = self.channels
        read_end = start
        for channel_index, address, count in runs:
            end = channels[channel_index].schedule_run(
                address, count, False, start).data_end
            if end > read_end:
                read_end = end
        write_start = read_end + self.crypto
        write_end = write_start
        for channel_index, address, count in runs:
            end = channels[channel_index].schedule_run(
                address, count, True, write_start).data_end
            if end > write_end:
                write_end = end
        if self.tracer.enabled:
            self.tracer.span("PATH_READ", CATEGORY_PROTOCOL, self.lane,
                             start, read_end)
            self.tracer.span("PATH_WRITE", CATEGORY_PROTOCOL, self.lane,
                             write_start, write_end)
        return write_end + self.crypto

    def try_access(self, leaf: int, start: int) -> Optional[int]:
        """Stamp one access flat, or return ``None`` to walk its runs."""
        self.attempts += 1
        pattern = self.producer.pattern(leaf, self.skip_levels)
        per_channel = pattern.per_channel
        if not per_channel:
            return None
        channels = self.channels
        for ch, rank_index in pattern.sig_ranks:
            if channels[ch].ranks[rank_index].power_state in PARKED:
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
