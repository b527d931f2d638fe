"""The serving core: bounded admission, batching, and backpressure.

A single ORAM backend is one server — every access costs the same fixed
link shape (that *is* the obliviousness property), so the serving system
is an M/D/1/K-style queue: Markovian arrivals, near-deterministic
service, K waiting slots.  This module implements that queue explicitly:

* **bounded admission** — an arrival that finds ``queue_capacity``
  requests already waiting is *shed* with a structured
  :class:`AdmissionRejected` record, never buffered unboundedly.  Path
  ORAM's stash bound argument assumes overload is shed, not deferred;
  the same discipline applies one layer up.
* **batching with read coalescing** — the scheduler drains up to
  ``batch_size`` waiting requests at a time and collapses duplicate
  reads of one address into a single protocol access whose bytes fan
  out to every rider.  Coalescing is correctness-preserving by
  construction: a write to the address republishes the bytes later
  riders must see, and the scheduler replays program order within the
  batch.
* **service-time calibration** — the cost of a batch is the growth of
  the protocol's link count (``len(protocol.link)``, see
  :class:`~repro.core.secure_buffer.LinkRecorder`) over the batch: link
  messages per access are constant per design, so one tick on the
  serving timeline equals one link message and utilization is
  dimensionless.

Everything is deterministic: same protocol, same request list, same
outcome, byte for byte.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.control.decisions import ControlDecision
from repro.control.morph import MODE_MORPHED
from repro.control.plane import PLAIN_LINK_EVENTS, ServeControlPlane
from repro.obs.metrics import MetricsRegistry
from repro.oram.path_oram import Op
from repro.serve.loadgen import Request
from repro.sim.stats import LatencyStats
from repro.utils.rng import DeterministicRng


@dataclass(frozen=True)
class AdmissionRejected:
    """One shed arrival: the structured record backpressure leaves behind.

    Everything a retry layer or an SLO postmortem needs: who was turned
    away, when, and what the queue looked like at that instant.
    """

    tenant: str
    sequence: int
    arrival: int
    queue_depth: int
    capacity: int
    reason: str = "queue-full"

    def to_dict(self) -> Dict[str, object]:
        return {"tenant": self.tenant, "sequence": self.sequence,
                "arrival": self.arrival, "queue_depth": self.queue_depth,
                "capacity": self.capacity, "reason": self.reason}


@dataclass
class Completion:
    """One served request, with its sojourn accounting."""

    request: Request
    start: int          # tick its batch began service
    finish: int         # tick its batch completed
    coalesced: bool     # True = served from a batch-mate's access

    @property
    def sojourn(self) -> int:
        return self.finish - self.request.arrival


@dataclass
class SchedulerOutcome:
    """Everything one serving run produced."""

    completions: List[Completion]
    shed: List[AdmissionRejected]
    offered: int
    batches: int
    accesses: int
    coalesced: int
    busy_ticks: int
    elapsed_ticks: int
    peak_depth: int
    sojourn: LatencyStats
    per_tenant: Dict[str, LatencyStats]
    #: bytes returned per (tenant, sequence) — coalescing-correctness probe
    read_bytes: Dict[object, bytes]
    #: adaptive-control-plane extras (empty on open-loop runs)
    decisions: List[ControlDecision] = field(default_factory=list)
    plain_accesses: int = 0
    control_payload: Optional[Dict[str, object]] = None

    @property
    def admitted(self) -> int:
        return self.offered - len(self.shed)

    @property
    def shed_rate(self) -> float:
        return len(self.shed) / self.offered if self.offered else 0.0

    @property
    def utilization(self) -> float:
        return (self.busy_ticks / self.elapsed_ticks
                if self.elapsed_ticks else 0.0)

    @property
    def ticks_per_access(self) -> float:
        return (self.busy_ticks / self.accesses
                if self.accesses else 0.0)


class BatchingScheduler:
    """Single-server bounded queue draining an ORAM protocol.

    ``protocol`` is any of the three SDIMM protocols: it must expose
    ``access(address, op, data=None) -> bytes`` and a ``link`` whose
    ``len()`` counts the messages sent so far.  A batch costs one tick
    per message it put on the link.
    """

    def __init__(self, protocol, queue_capacity: int, batch_size: int = 1,
                 metrics: Optional[MetricsRegistry] = None,
                 keep_read_bytes: bool = False,
                 sample_seed: int = 2018,
                 control: Optional[ServeControlPlane] = None,
                 coalesce: bool = True):
        if queue_capacity < 1:
            raise ValueError("admission queue needs capacity >= 1")
        if batch_size < 1:
            raise ValueError("batch size must be at least 1")
        self.protocol = protocol
        self.queue_capacity = queue_capacity
        self.batch_size = batch_size
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.keep_read_bytes = keep_read_bytes
        self._sample_seed = sample_seed
        self.control = control
        self.coalesce = coalesce
        self._link = protocol.link

    # ------------------------------------------------------------------

    def _serve_batch(self, batch: List[Request]):
        """Issue a batch in arrival order, coalescing duplicate reads.

        Returns ``(served, coalesced_keys, accesses, plain)``: the bytes
        served to every read keyed by (tenant, sequence), which of those
        rode a batch-mate's access, how many protocol accesses were
        spent, and how many morphed (non-secure) accesses bypassed the
        protocol.  A write republishes its payload into the coalescing
        window, so later same-address reads observe it exactly as an
        un-coalesced replay would.

        A request from a tenant the morph controller holds in morphed
        mode is served from the control plane's plain overlay: no ORAM
        access, just the two link messages of Section III-A.4, and never
        through the coalescing window (the plain path has no access to
        amortize and must not perturb secure batch shapes).
        """
        served: Dict[object, bytes] = {}
        coalesced_keys = set()
        accesses = 0
        plain = 0
        window: Dict[int, bytes] = {}
        plane = self.control
        morphing = plane is not None and plane.morph is not None
        for request in batch:
            key = (request.tenant, request.sequence)
            if morphing and plane.mode(request.tenant) == MODE_MORPHED:
                plain += 1
                if request.op is Op.WRITE:
                    plane.plain_write(request.tenant, request.address,
                                      request.data)
                else:
                    served[key] = plane.plain_read(request.address)
                continue
            if request.op is Op.WRITE:
                self.protocol.access(request.address, Op.WRITE,
                                     request.data)
                window[request.address] = request.data
                accesses += 1
            elif self.coalesce and request.address in window:
                served[key] = window[request.address]
                coalesced_keys.add(key)
            else:
                data = self.protocol.access(request.address, Op.READ)
                window[request.address] = data
                served[key] = data
                accesses += 1
            if morphing:
                plane.note_write(request.address,
                                 window[request.address])
        return served, coalesced_keys, accesses, plain

    # ------------------------------------------------------------------

    def run(self, requests: List[Request]) -> SchedulerOutcome:
        """Drain one open-loop timeline through the protocol.

        Event-driven single-server loop: batches that complete before the
        next arrival are retired first, then the arrival is admitted or
        shed against the bounded queue.
        """
        depth_gauge = self.metrics.gauge("serve/queue_depth")
        admitted_counter = self.metrics.counter("serve/admitted")
        shed_counter = self.metrics.counter("serve/shed")
        plane = self.control
        if plane is not None:
            batch_gauge = self.metrics.gauge("control/batch_size")
            limit_gauge = self.metrics.gauge("control/admit_limit")
            batch_gauge.set(self.batch_size)
            limit_gauge.set(self.queue_capacity)

        waiting: Deque[Request] = deque()
        completions: List[Completion] = []
        shed: List[AdmissionRejected] = []
        read_bytes: Dict[object, bytes] = {}
        sojourn = LatencyStats(
            sample_rng=DeterministicRng(self._sample_seed, "serve/sojourn"))
        per_tenant: Dict[str, LatencyStats] = {}
        server_free = 0
        busy_ticks = 0
        batches = 0
        accesses = 0
        coalesced = 0
        plain_total = 0
        peak_depth = 0
        overhead_seen = 0

        def drain_until(horizon: Optional[int]) -> None:
            """Retire batches completing before ``horizon`` (None = all)."""
            nonlocal server_free, busy_ticks, batches, accesses, coalesced
            nonlocal plain_total
            while waiting and (horizon is None or server_free <= horizon):
                start = max(server_free, waiting[0].arrival)
                if horizon is not None and start > horizon:
                    break
                batch = [waiting.popleft()
                         for _ in range(min(self.batch_size, len(waiting)))]
                depth_gauge.adjust(-len(batch))
                sent = len(self._link)
                served, coalesced_keys, batch_accesses, batch_plain = \
                    self._serve_batch(batch)
                cost = (len(self._link) - sent +
                        batch_plain * PLAIN_LINK_EVENTS)
                finish = start + cost
                for request in batch:
                    key = (request.tenant, request.sequence)
                    record = Completion(request=request, start=start,
                                        finish=finish,
                                        coalesced=key in coalesced_keys)
                    completions.append(record)
                    sojourn.record(record.sojourn)
                    stats = per_tenant.get(request.tenant)
                    if stats is None:
                        stats = per_tenant[request.tenant] = LatencyStats(
                            sample_rng=DeterministicRng(
                                self._sample_seed,
                                f"serve/sojourn/{request.tenant}"))
                    stats.record(record.sojourn)
                    if self.keep_read_bytes and key in served:
                        read_bytes[key] = served[key]
                    if plane is not None:
                        plane.note_completion(finish, record.sojourn)
                busy_ticks += cost
                batches += 1
                accesses += batch_accesses
                coalesced += len(coalesced_keys)
                plain_total += batch_plain
                server_free = finish

        def apply_control(reclassified: List[str]) -> None:
            """Enact freshly-flushed decisions on the live scheduler.

            Admission moves retarget the knobs; a reclassified tenant's
            dirty overlay addresses replay into the protocol as real,
            charged write accesses (the data moves back under ORAM).
            Controller evaluations charge their overhead to busy time.
            The plane keeps the decisions themselves.
            """
            nonlocal server_free, busy_ticks, accesses, overhead_seen
            overhead = plane.overhead_ticks - overhead_seen
            overhead_seen = plane.overhead_ticks
            busy_ticks += overhead
            if plane.admission is not None:
                self.batch_size = plane.admission.batch_size
                self.queue_capacity = plane.admission.admit_limit
                batch_gauge.set(self.batch_size)
                limit_gauge.set(self.queue_capacity)
            for tenant in reclassified:
                addresses = plane.take_dirty(tenant)
                if not addresses:
                    continue
                sent = len(self._link)
                for address in addresses:
                    self.protocol.access(address, Op.WRITE,
                                         plane.overlay[address])
                cost = len(self._link) - sent
                busy_ticks += cost
                server_free += cost
                accesses += len(addresses)

        for request in requests:
            drain_until(request.arrival)
            if plane is not None:
                apply_control(plane.flush_until(request.arrival,
                                                len(waiting)))
            if len(waiting) >= self.queue_capacity:
                record = AdmissionRejected(
                    tenant=request.tenant, sequence=request.sequence,
                    arrival=request.arrival, queue_depth=len(waiting),
                    capacity=self.queue_capacity)
                shed.append(record)
                shed_counter.inc()
                if plane is not None:
                    plane.note_shed(request)
                continue
            waiting.append(request)
            admitted_counter.inc()
            depth_gauge.adjust(1)
            peak_depth = max(peak_depth, len(waiting))
            if plane is not None:
                plane.note_admitted(request)
        drain_until(None)
        decisions: List[ControlDecision] = []
        if plane is not None:
            apply_control(plane.flush_final(server_free, len(waiting)))
            decisions = list(plane.decisions)

        # each total is counted once, here, not per batch
        metrics = self.metrics
        metrics.counter("serve/batches").inc(batches)
        metrics.counter("serve/accesses").inc(accesses)
        metrics.counter("serve/coalesced").inc(coalesced)
        if plane is not None:
            metrics.counter("control/decisions").inc(len(decisions))
            metrics.counter("control/applied").inc(
                sum(1 for decision in decisions if decision.applied))
            metrics.counter("control/overhead_ticks").inc(
                plane.overhead_ticks)
            metrics.counter("control/plain_accesses").inc(plain_total)
        elapsed = server_free
        if requests and not elapsed:
            elapsed = max(request.arrival for request in requests)
        return SchedulerOutcome(
            completions=completions, shed=shed, offered=len(requests),
            batches=batches, accesses=accesses, coalesced=coalesced,
            busy_ticks=busy_ticks, elapsed_ticks=elapsed,
            peak_depth=peak_depth, sojourn=sojourn,
            per_tenant=per_tenant, read_bytes=read_bytes,
            decisions=decisions, plain_accesses=plain_total,
            control_payload=(plane.payload()
                             if plane is not None else None))
