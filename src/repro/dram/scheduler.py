"""FR-FCFS memory scheduling with write-queue draining (Section IV-A).

The paper's backend uses an FR-FCFS scheduler where "read requests are
prioritized until the write queue size exceeds 40".  This module implements
that policy over a :class:`~repro.dram.channel.Channel`: first-ready (row
hits) first, then oldest; reads have priority; once the write queue crosses
its high watermark the scheduler drains writes down to the low watermark.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.config import SchedulerConfig
from repro.dram.channel import AccessTiming, Channel, MemoryRequest
from repro.obs.tracer import CATEGORY_DRAM, NULL_TRACER, Tracer


class FrFcfsScheduler:
    """Request-level front door to one channel."""

    def __init__(self, channel: Channel, config: Optional[SchedulerConfig] = None,
                 tracer: Tracer = NULL_TRACER):
        self.channel = channel
        self.config = config or SchedulerConfig()
        self.tracer = tracer
        self.read_queue: List[MemoryRequest] = []
        self.write_queue: List[MemoryRequest] = []
        self._draining = False
        self.stats_drain_episodes = 0

    def enqueue(self, request: MemoryRequest) -> None:
        """Add a request.  Writes are posted (fire-and-forget) by callers."""
        if request.is_write:
            self.write_queue.append(request)
        else:
            self.read_queue.append(request)
        if self.tracer.enabled:
            self.tracer.counter("queue_depth", CATEGORY_DRAM,
                                self.channel.name, request.arrival_time,
                                self.pending)

    @property
    def pending(self) -> int:
        return len(self.read_queue) + len(self.write_queue)

    def has_work(self) -> bool:
        return bool(self.read_queue or self.write_queue)

    @property
    def write_queue_full(self) -> bool:
        return len(self.write_queue) >= self.config.write_queue_capacity

    def _update_drain_mode(self) -> None:
        if self._draining:
            if len(self.write_queue) <= self.config.write_drain_low:
                self._draining = False
        elif len(self.write_queue) > self.config.write_drain_high:
            self._draining = True
            self.stats_drain_episodes += 1

    def _pick(self, queue: List[MemoryRequest]) -> MemoryRequest:
        """FR-FCFS: oldest row-hit if any, else the oldest request."""
        for request in queue:
            rank = self.channel.ranks[request.address.rank]
            bank = rank.banks[request.address.bank]
            if bank.open_row == request.address.row:
                queue.remove(request)
                return request
        return queue.pop(0)

    def issue_next(self, now: int) -> Tuple[MemoryRequest, AccessTiming]:
        """Select and issue the best request; returns it with its timing.

        Raises:
            LookupError: if both queues are empty.
        """
        if not self.has_work():
            raise LookupError("no queued requests to issue")
        self._update_drain_mode()
        if self.read_queue and not self._draining:
            request = self._pick(self.read_queue)
        elif self.write_queue:
            request = self._pick(self.write_queue)
        else:
            request = self._pick(self.read_queue)
        arrival = request.arrival_time
        timing = self.channel.schedule_access(
            request.address, request.is_write,
            now if now > arrival else arrival)
        request.completion_time = timing.data_end
        if self.tracer.enabled:
            self.tracer.counter("queue_depth", CATEGORY_DRAM,
                                self.channel.name, timing.cas_issue,
                                self.pending)
            self.tracer.instant("issue", CATEGORY_DRAM, self.channel.name,
                                timing.cas_issue,
                                write=int(request.is_write),
                                outcome=timing.outcome.value,
                                wait=timing.cas_issue - request.arrival_time)
        return request, timing
