"""Adversary bus-trace audit: the threat model as an executable test.

Section III-G argues the designs are oblivious because the CPU<->SDIMM
traffic has a fixed *nature* per request.  "Revisiting Definitional
Foundations of Oblivious RAM" (arXiv:1706.03852) insists that claim be
checked on the observable trace, not asserted.  This module does exactly
that, at both simulation tiers:

* **Timing tier** (:func:`audit_timing_design`): two runs of the same
  backend, same seed, *different address streams*, with the PLB disabled
  (the PLB is a known, acknowledged timing channel of Freecursive ORAM —
  its hit pattern depends on addresses by construction, so it is excluded
  from the obliviousness claim and from this audit).  Everything the
  memory-channel adversary sees — link-bus reservations and main-channel
  DRAM bursts, with exact cycle timestamps — must be **byte-identical**.
  :class:`~repro.sim.backends` backends draw leaf randomness from their
  own seeded streams and never consult the address, so equality is the
  expected outcome for every secure design; the non-secure baseline fails
  (its row/bank activity *is* the address), serving as the negative
  control that proves the audit has teeth.

* **Functional tier** (:func:`audit_protocol`): the content-carrying
  protocols in :mod:`repro.core` emit one ``link`` tracer instant per
  message through their :class:`~repro.core.secure_buffer.LinkRecorder`,
  and :func:`adversary_observations` admits those instants alongside the
  timing tier's bus and main-channel events: one definition of what a
  probe sees.  Here exact equality is the wrong test: position maps draw
  initial leaves lazily, so two different address streams legitimately
  desynchronize the (secret, internal) randomness, and the observable
  trace is only *distributionally* identical.  The audit therefore
  compares the **canonical observable** (:func:`link_shapes`): per-message
  (direction, command, payload size) on the protocol's own link lane,
  with the uniformly-random target SDIMM excluded — and, for the
  Freecursive baseline, the (kind, tree-level) sequence of bucket
  touches, since the bucket index within a level is a uniform function of
  the fresh leaf.  These canonical streams are deterministic per access
  and must match exactly.

Fault injection (:class:`LeakyLink`) wires a real leaf bit into a
FETCH_RESULT payload size; the audit must flag the resulting traces as
distinguishable, which the tier-1 suite asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.commands import SdimmCommand
from repro.core.secure_buffer import LinkRecorder
from repro.obs.tracer import (BUCKET_EVENT, CATEGORY_BUS, CATEGORY_DRAM,
                              CATEGORY_LINK, CollectingTracer, TraceEvent)

#: Argument keys that would carry secret-tainted values if they ever
#: appeared on an adversary-visible event.  A superset of SEC003's secret
#: vocabulary (``lint/dataflow._SECRET_VOCABULARY``: leaf, plaintext,
#: secret): a block's address and tag name the program's data too.
FORBIDDEN_ADVERSARY_ARGS = ("leaf", "address", "plaintext", "secret", "tag")

#: The lane-name prefix of CPU-side (adversary-visible) DRAM channels.
MAIN_LANE_PREFIX = "main"


def adversary_observations(events: Sequence[TraceEvent]) -> List[TraceEvent]:
    """Exactly the events a memory-channel probe sees.

    That is: every link-bus event and every functional link message, plus
    DRAM activity on the *main* channels only.  SDIMM-internal channels
    (``sdimm*`` lanes) sit behind the secure buffer and are invisible to
    the Section III-B adversary.
    """
    return [event for event in events
            if event.category in (CATEGORY_BUS, CATEGORY_LINK)
            or (event.category == CATEGORY_DRAM
                and event.lane.startswith(MAIN_LANE_PREFIX))]


def link_instants(events: Sequence[TraceEvent],
                  lane: str) -> List[TraceEvent]:
    """The functional link messages a probe sees on one link ``lane``."""
    return [event for event in adversary_observations(events)
            if event.category == CATEGORY_LINK and event.lane == lane]


def link_shapes(events: Sequence[TraceEvent],
                lane: str) -> List[Tuple[str, str, int]]:
    """The content-free part of one lane's messages, in order.

    ``(direction, command, payload_bytes)`` per message — what
    obliviousness fixes.  The target SDIMM is excluded: it is a uniform
    random function of the (secret, freshly remapped) leaf, identical in
    distribution for every access pattern.
    """
    return [(event.args["direction"], event.name,
             event.args["payload_bytes"])
            for event in link_instants(events, lane)]


def bucket_touches(events: Sequence[TraceEvent],
                   lane: str) -> List[Tuple[str, int]]:
    """One tree's bucket-level trace: ``(kind, bucket)`` of every
    ``bucket`` instant on ``lane``, in order."""
    return [(event.args["kind"], event.args["bucket"]) for event in events
            if event.name == BUCKET_EVENT and event.lane == lane]


def scan_secret_args(events: Sequence[TraceEvent]) -> List[str]:
    """SEC003 guard: adversary-visible events must not carry secrets.

    Returns a list of violation descriptions (empty = clean).  Checked on
    every audit run and asserted by the tier-1 suite.
    """
    return [f"{event.category}/{event.name} on {event.lane} at "
            f"{event.start} carries forbidden arg {key!r}"
            for event in adversary_observations(events)
            for key in event.args
            if key.lower() in FORBIDDEN_ADVERSARY_ARGS]


# ----------------------------------------------------------------------
# Comparison machinery
# ----------------------------------------------------------------------

#: Names an audit that must FAIL: a leaky variant proving the audit bites.
NEGATIVE_CONTROL = "negative-control:"


@dataclass
class AuditResult:
    """Outcome of one two-run indistinguishability comparison."""

    name: str
    observable: str              # what canonical stream was compared
    length_a: int
    length_b: int
    indistinguishable: bool
    first_divergence: Optional[Tuple[int, object, object]] = None
    secret_arg_violations: Tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.indistinguishable and not self.secret_arg_violations

    @property
    def sound(self) -> bool:
        """The expected verdict: a PASS, or a FAIL for a negative control."""
        return self.passed != self.name.startswith(NEGATIVE_CONTROL)

    def describe(self) -> str:
        if self.passed:
            return (f"{self.name}: PASS — {self.length_a} {self.observable} "
                    f"events identical across both address streams")
        if self.secret_arg_violations:  # reprolint: disable=SEC003 -- audit verdict metadata: this lists *detected* violations (strings for the report), not secret protocol state; the name trips the vocabulary
            return (f"{self.name}: FAIL — secret-tainted payloads: "
                    f"{'; '.join(self.secret_arg_violations[:3])}")
        if self.first_divergence is None:
            return (f"{self.name}: FAIL — traces differ in length "
                    f"({self.length_a} vs {self.length_b} "
                    f"{self.observable} events)")
        index, left, right = self.first_divergence
        return (f"{self.name}: FAIL — {self.observable} traces diverge at "
                f"event {index}: {left!r} vs {right!r}")


def compare_observables(name: str, observable: str,
                        trace_a: Sequence, trace_b: Sequence,
                        secret_violations: Sequence[str] = ()) -> AuditResult:
    """Element-wise comparison of two canonical observable streams."""
    divergence = next(((index, left, right) for index, (left, right)
                       in enumerate(zip(trace_a, trace_b)) if left != right),
                      None)
    same = divergence is None and len(trace_a) == len(trace_b)
    return AuditResult(name=name, observable=observable,
                       length_a=len(trace_a), length_b=len(trace_b),
                       indistinguishable=same,
                       first_divergence=divergence,
                       secret_arg_violations=tuple(secret_violations))


def audit_pair(name: str, observable: str,
               streams: Sequence[Sequence[int]],
               observe: Callable[[Sequence[int], CollectingTracer], Sequence]
               ) -> AuditResult:
    """The one two-run comparison every audit is.

    ``observe(stream, tracer)`` runs the system under audit over one
    address stream, tracing into a fresh :class:`CollectingTracer`, and
    returns that run's canonical observable.  Every run's events are
    screened by :func:`scan_secret_args`; the two observables must match.
    """
    observed, violations = [], []
    for stream in streams:
        tracer = CollectingTracer()
        observed.append(observe(stream, tracer))
        violations.extend(scan_secret_args(tracer.events))
    return compare_observables(name, observable, *observed,
                               secret_violations=violations)


# ----------------------------------------------------------------------
# Address streams
# ----------------------------------------------------------------------

def audit_address_streams(count: int, seed: int = 2018,
                          span: int = 1 << 20) -> Tuple[List[int], List[int]]:
    """Two deliberately different address streams of equal length.

    The streams differ in every way an access pattern can: stream A walks
    ``count`` *distinct* sequential lines (maximal locality, no reuse);
    stream B jumps pseudo-randomly across a window of at most ``count // 2``
    lines of ``span``, guaranteeing heavy *reuse*.  The reuse asymmetry
    matters: position maps draw initial leaves lazily in access order, so
    two no-reuse streams see identical leaf sequences under address
    relabeling and a leaf-dependent leak would cancel out between them.
    Reused addresses carry their *remapped* leaves instead, which breaks
    that symmetry and lets the audit catch leaks like :class:`LeakyLink`.
    """
    from repro.utils.rng import DeterministicRng

    rng = DeterministicRng(seed, "audit-stream-b")
    window = max(2, min(span, count // 2))
    stream_a = list(range(count))
    stream_b = [rng.randrange(window) * (span // window)
                for _ in range(count)]
    # Structural floor for tiny counts, where the random draws could
    # degenerate into a constant (or reuse-free) sequence: pin a far
    # address up front and a guaranteed repeat of it at the end, so the
    # streams always differ and stream B always reuses.
    if count >= 2:
        stream_b[0] = span // 2
        stream_b[-1] = stream_b[0]
    return stream_a, stream_b


# ----------------------------------------------------------------------
# Timing-tier audit (exact equality)
# ----------------------------------------------------------------------

#: The bus-stall schedule of the faulted timing audit: ``(start cycle,
#: cycles)`` per stall, injected on every link bus.
BUS_STALLS: Tuple[Tuple[int, int], ...] = ((2_000, 600), (9_000, 900))


def audit_timing_design(design, misses: int = 12, channels: int = 1,
                        seed: int = 2018, gap_cycles: int = 4000,
                        stalls: Sequence[Tuple[int, int]] = ()
                        ) -> AuditResult:
    """Byte-exact adversary-trace equality across two address streams.

    Each run is one traced backend over a fixed-arrival miss stream.
    Misses arrive on a fixed schedule (every ``gap_cycles``) so arrival
    timing carries no address information; the PLB is disabled so the
    per-miss accessORAM count is the full recursion depth for every miss.
    What remains observable is purely the backend's behaviour.

    Each ``(start, cycles)`` in ``stalls`` (see :data:`BUS_STALLS`)
    occupies every link bus for that interval: a transient SDIMM buffer
    stall.  The identical schedule goes into both runs.  It is positional
    (absolute cycles), so it shifts every later reservation identically:
    the adversary traces must stay byte-exact for secure designs.
    """
    from repro.config import DesignPoint, table2_config
    from repro.oram.plb import PlbFrontend
    from repro.sim.events import EventQueue
    from repro.sim.system import build_backend

    design = DesignPoint(design)
    config = table2_config(design, channels=channels, seed=seed)

    def observe(addresses, tracer):
        events = EventQueue()
        backend = build_backend(config, events, tracer=tracer)
        backend.frontend = PlbFrontend(config.oram, enabled=False)
        for bus in backend.buses:
            for start, cycles in stalls:
                bus.inject_stall(start, cycles)
        for index, address in enumerate(addresses):
            arrival = index * gap_cycles
            events.at(arrival,
                      lambda a=address, t=arrival: backend.submit(
                          a, t, is_write=False))
        events.run()
        backend.finalize(events.now)
        return [event.key()
                for event in adversary_observations(tracer.events)]

    tier = "timing+stalls" if stalls else "timing"
    return audit_pair(f"{tier}:{design.value}", "adversary",
                      audit_address_streams(misses, seed=seed), observe)


# ----------------------------------------------------------------------
# Functional-tier audits (canonicalized link shapes)
# ----------------------------------------------------------------------

class LeakyLink(LinkRecorder):
    """Fault-injection link recorder: one secret leaf bit escapes.

    Inflates FETCH_RESULT payloads by ``leak_bit`` — the audit driver sets
    that to the accessed block's real leaf parity before each access,
    modelling a buggy buffer whose response size depends on the position
    it serves.  Audits must catch this as distinguishable.
    """

    leak_bit = 0

    def down(self, command, sdimm: int, payload_bytes: int) -> None:
        if command is SdimmCommand.FETCH_RESULT:
            payload_bytes += self.leak_bit
        super().down(command, sdimm, payload_bytes)


def audit_protocol(design: str, addresses_a: Sequence[int],
                   addresses_b: Sequence[int], levels: int = 6,
                   sites: int = 2, seed: int = 2018,
                   inject_leak: bool = False) -> AuditResult:
    """Link-shape audit of one functional protocol design.

    For INDEP-SPLIT this is the top-level link (ACCESS / FETCH_RESULT /
    APPEND broadcast), whose per-access shape is fixed.  Group-internal
    Split traffic is paced by the transfer-queue drain lottery, whose
    *positions* are randomness-driven (distributionally identical, not
    pointwise equal), so it is audited through the ``split`` design
    rather than compared pointwise here.
    """
    from repro.core.designs import build_protocol

    def observe(stream, tracer):
        protocol = build_protocol(design, levels, sites, seed=seed,
                                  tracer=tracer)
        lane = protocol.link.lane
        if inject_leak:
            protocol.link = LeakyLink(tracer, lane, protocol.link.clock)
        for address in stream:
            if inject_leak:
                protocol.link.leak_bit = protocol.posmap.lookup(address) & 1
            protocol.read(address)
        return link_shapes(tracer.events, lane)

    suffix = "+leak" if inject_leak else ""
    return audit_pair(f"protocol:{design}{suffix}", "link-shape",
                      (addresses_a, addresses_b), observe)


def audit_freecursive_protocol(addresses_a: Sequence[int],
                               addresses_b: Sequence[int],
                               levels: int = 8, seed: int = 2018) -> AuditResult:
    """Bucket-level audit of the functional Freecursive baseline.

    Uses the unified tree (Fletcher et al.'s recommendation, which hides
    *which* ORAM a path serves) with the PLB disabled.  The canonical
    observable is the (kind, tree-level) sequence: the level walk is the
    deterministic part of a path access, while the bucket index within a
    level is a uniform function of the fresh leaf and carries no address
    information.  The tree sits CPU-side, so its ``bucket`` instants lie
    on a main lane: they are adversary observations, and
    :func:`scan_secret_args` screens each one.
    """
    from repro.config import OramConfig
    from repro.oram.freecursive import FreecursiveOram
    from repro.utils.rng import DeterministicRng

    config = OramConfig(levels=levels, cached_levels=2, recursive_posmaps=2,
                        stash_capacity=max(200, levels * 8))

    def observe(stream, tracer):
        oram = FreecursiveOram(config,
                               DeterministicRng(seed, "audit-freecursive"),
                               plb_enabled=False, unified_tree=True,
                               tracer=tracer)
        for address in stream:
            oram.read(address)
        return [(kind, (bucket + 1).bit_length() - 1)
                for kind, bucket in bucket_touches(
                    adversary_observations(tracer.events), MAIN_LANE_PREFIX)]

    return audit_pair("protocol:freecursive", "bucket-level",
                      (addresses_a, addresses_b), observe)


# ----------------------------------------------------------------------
# Sharded-routing audit: the serving tier's shard key is the address
# ----------------------------------------------------------------------

def audit_sharded_routing(addresses_a: Sequence[int],
                          addresses_b: Sequence[int],
                          shards: int = 2, subtrees: int = 8,
                          levels: int = 6, sites: int = 2,
                          seed: int = 2018,
                          expose_shard: bool = False) -> AuditResult:
    """Link-shape audit of the sharded serving tier's routing.

    The shard key *is* a function of the address (top leaf-MSB bits
    through the consistent-hash ring), so sharding is only oblivious if
    the adversary cannot tell **which** shard served an access.  On the
    link bus that holds: :func:`link_shapes` excludes the target, and
    every shard's per-access traffic has the same fixed shape — so the
    arrival-ordered concatenation of per-access link-shape chunks across
    all shard protocols must be identical for two different address
    streams.

    ``expose_shard`` is the negative control: prefixing each shape with
    the serving shard's index models a deployment where shards are
    physically distinguishable (separate channels, per-shard timing).
    That trace *is* address-dependent and the audit must flag it — which
    is exactly why the tier keeps shard fan-out behind the position-
    independent link observable.
    """
    from repro.core.designs import build_protocol
    from repro.serve.shard import ShardPlan

    plan = ShardPlan(shards=shards, subtrees=subtrees, levels=levels,
                     virtual_nodes=8)
    limit = 1 << (levels - 1)

    def observe(stream, tracer):
        # every shard's link shares one lane: the probe cannot tell them
        # apart, so one tracer records them in arrival order
        protocols = [build_protocol("independent", levels, sites, seed=seed,
                                    tracer=tracer)
                     for _ in range(shards)]
        lane = protocols[0].link.lane
        observed: List[Tuple] = []
        for raw in stream:
            address = raw % limit
            shard = plan.shard_of_address(address)
            before = len(tracer.events)
            protocols[shard].read(address)
            observed.extend((shard,) + shape if expose_shard else shape
                            for shape in link_shapes(tracer.events[before:],
                                                     lane))
        return observed

    suffix = "+shard-exposed" if expose_shard else ""
    return audit_pair(f"routing:sharded{suffix}", "link-shape",
                      (addresses_a, addresses_b), observe)


# ----------------------------------------------------------------------
# Adaptive-control audit: decisions are functions of public signals only
# ----------------------------------------------------------------------

def _tainted_plane_class():
    """The negative control's control plane, built lazily.

    A buggy (or malicious) plane that lets the *addresses* of admitted
    requests steer the controller: it stashes each window's admitted
    addresses and folds their parity sum into the p99 signal.  Decisions
    — and therefore batch-size/admission moves, and therefore the service
    timeline — become functions of the secret access pattern.  The audit
    must flag the two runs as distinguishable; that it does is the proof
    the adaptive-control audit has teeth.
    """
    from repro.control.plane import ServeControlPlane

    class _TaintedPlane(ServeControlPlane):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._window_addresses = {}

        def note_admitted(self, request) -> None:
            super().note_admitted(request)
            window = request.arrival // self.window_ticks
            self._window_addresses.setdefault(window, []).append(
                request.address)

        def window_signal(self, index):
            p99, shed = super().window_signal(index)
            taint = sum(address & 1 for address
                        in self._window_addresses.pop(index, []))
            if taint:
                p99 = taint if p99 is None else p99 + taint
            return p99, shed

    return _TaintedPlane


def audit_adaptive_control(requests: int = 96, levels: int = 6,
                           window_ticks: int = 256, gap_ticks: int = 48,
                           slo_p99: int = 512, capacity: int = 8,
                           batch: int = 4, seed: int = 2018,
                           taint_signal: bool = False) -> AuditResult:
    """Adaptation must not widen the channel: decisions stay public.

    Two adaptive runs with the *same* arrival timeline and *different*
    address streams must produce identical decision logs and identical
    completion/shed timelines — every controller input (window p99, shed
    count, queue depth) is a public aggregate the adversary already
    observes, so closing the loop adds no address-dependence.

    Arrivals sit on a fixed grid (every ``gap_ticks``) so arrival timing
    carries no address information, and read coalescing is disabled: a
    coalesced batch's service time depends on address *equality* within
    the batch by construction, which is a property of the open-loop
    scheduler, not of the control loop under audit here.  Two tenants
    alternate, the second declassified, so the morph controller's
    secure<->morphed switching is part of the audited behaviour.

    ``taint_signal`` is the negative control: it swaps in a control
    plane whose :meth:`window_signal` folds an address-parity term into
    the p99 the controller sees.  Decisions then differ between the
    streams and the audit must catch it.
    """
    from repro.control.admission import AdmissionController
    from repro.control.morph import MorphController
    from repro.control.plane import ServeControlPlane
    from repro.core.designs import build_protocol
    from repro.oram.path_oram import Op
    from repro.serve.loadgen import Request
    from repro.serve.scheduler import BatchingScheduler

    plane_class = (_tainted_plane_class() if taint_signal
                   else ServeControlPlane)
    limit = 1 << (levels - 1)

    def observe(addresses, tracer):
        plane = plane_class(
            window_ticks,
            admission=AdmissionController(slo_p99, capacity,
                                          batch_size=batch),
            morph=MorphController(frozenset({"t1"})))
        protocol = build_protocol("split", levels, seed=seed, tracer=tracer)
        # the tenants alternate, so each one's sequence is index // 2
        arrivals = [Request(arrival=index * gap_ticks, tenant=f"t{index % 2}",
                            sequence=index // 2, address=address % limit,
                            op=Op.READ)
                    for index, address in enumerate(addresses)]
        scheduler = BatchingScheduler(protocol, queue_capacity=capacity,
                                      batch_size=batch, control=plane,
                                      coalesce=False)
        outcome = scheduler.run(arrivals)
        observable: List[Tuple] = [
            ("decision",) + tuple(sorted(
                (key, tuple(sorted(value.items()))
                 if isinstance(value, dict) else value)
                for key, value in decision.to_dict().items()))
            for decision in outcome.decisions]
        observable.extend(("completion", record.start, record.finish)
                          for record in outcome.completions)
        observable.extend(("shed", record.arrival, record.queue_depth,
                           record.capacity) for record in outcome.shed)
        return observable

    suffix = "+tainted-signal" if taint_signal else ""
    return audit_pair(f"control:adaptive{suffix}", "decision+timeline",
                      audit_address_streams(requests, seed=seed,
                                            span=1 << 10), observe)


# ----------------------------------------------------------------------
# Faulted audits (repro.faults): retries must look like re-accesses
# ----------------------------------------------------------------------

def audit_faulted_protocol(design: str,
                           addresses_a: Sequence[int],
                           addresses_b: Sequence[int],
                           levels: int = 6, sites: int = 2,
                           seed: int = 2018,
                           bit_flips: int = 2, replays: int = 1,
                           link_drops: int = 1, link_duplicates: int = 1,
                           link_delays: int = 1) -> AuditResult:
    """Link-shape audit of a protocol under an identical fault plan.

    The resilience claim of :mod:`repro.faults`: injected faults and the
    retries they provoke must not make a secure design's bus traffic
    address-distinguishable.  Faults are scheduled positionally (access
    index + operation ordinal, never address or leaf), and a retry
    re-issues the same messages a fresh fetch would — so two different
    address streams under the *same* plan must still produce identical
    link-shape sequences.

    Exhausted retry budgets quarantine where the design allows it (the
    degraded path emits the normal per-access shape) and otherwise end
    the run — the plan, not the addresses, decides where, so both audit
    streams truncate at the same access.
    """
    from repro.faults.campaign import CampaignSpec, build_faulted_protocol
    from repro.faults.recovery import RetryExhaustedError

    spec = CampaignSpec(design=design, accesses=len(addresses_a),
                        levels=levels, sites=sites, seed=seed,
                        bit_flips=bit_flips, replays=replays,
                        link_drops=link_drops,
                        link_duplicates=link_duplicates,
                        link_delays=link_delays)
    plan = spec.build_plan()

    def observe(stream, tracer):
        protocol, injector, _ = build_faulted_protocol(spec, plan,
                                                       tracer=tracer)
        for index, address in enumerate(stream):
            injector.begin_access(index)
            try:
                protocol.read(address)
            except RetryExhaustedError as error:
                if hasattr(protocol, "quarantine"):
                    protocol.quarantine(error.site)
                    continue
                break
        return link_shapes(tracer.events, protocol.link.lane)

    return audit_pair(f"faulted:{design}", "link-shape",
                      (addresses_a, addresses_b), observe)


# ----------------------------------------------------------------------
# The full audit the CLI runs
# ----------------------------------------------------------------------

def run_full_audit(misses: int = 12, accesses: int = 48,
                   seed: int = 2018,
                   include_negative_control: bool = True,
                   with_faults: bool = False,
                   inject_leak: bool = False) -> List[AuditResult]:
    """Audit every Figure-8 design at both tiers.

    Timing tier: freecursive / indep-2 / split-2 must show byte-identical
    adversary traces.  Functional tier: the canonicalized protocol
    observables must match, and the sharded serving tier's routing
    (:func:`audit_sharded_routing`) must not be visible on the link.
    The adaptive control plane is audited too
    (:func:`audit_adaptive_control`): closing the loop must not make the
    decision log or service timeline address-dependent.  With
    ``with_faults``, the faulted variants run too: the same designs under
    an identical seeded fault plan (and a fixed bus-stall schedule at the
    timing tier) must remain indistinguishable — retries have to look
    like normal re-accesses.

    Negative controls come last, named with the :data:`NEGATIVE_CONTROL`
    prefix so that distinguishability is their success condition
    (:attr:`AuditResult.sound`).  ``include_negative_control`` adds three
    — the non-secure baseline, a shard-exposing routing variant, and a
    control plane fed a secret-tainted signal — and ``inject_leak`` adds
    a :class:`LeakyLink` run of the independent protocol.
    """
    from repro.config import DesignPoint

    stream_a, stream_b = audit_address_streams(accesses, seed=seed,
                                               span=1 << 10)
    results = [
        audit_timing_design(DesignPoint.FREECURSIVE, misses=misses,
                            seed=seed),
        audit_timing_design(DesignPoint.INDEP_2, misses=misses, seed=seed),
        audit_timing_design(DesignPoint.SPLIT_2, misses=misses, seed=seed),
        audit_freecursive_protocol(stream_a, stream_b, seed=seed),
        audit_protocol("independent", stream_a, stream_b, seed=seed),
        audit_protocol("split", stream_a, stream_b, seed=seed),
        audit_protocol("indep-split", stream_a, stream_b, levels=7,
                       seed=seed),
        audit_sharded_routing(stream_a, stream_b, seed=seed),
        audit_adaptive_control(seed=seed),
    ]
    if with_faults:
        results.extend([
            audit_faulted_protocol("independent", stream_a, stream_b,
                                   seed=seed),
            audit_faulted_protocol("split", stream_a, stream_b, seed=seed),
            audit_faulted_protocol("indep-split", stream_a, stream_b,
                                   levels=7, seed=seed),
            audit_timing_design(DesignPoint.INDEP_2, misses=misses,
                                seed=seed, stalls=BUS_STALLS),
            audit_timing_design(DesignPoint.SPLIT_2, misses=misses,
                                seed=seed, stalls=BUS_STALLS),
        ])
    controls = []
    if include_negative_control:
        controls = [
            audit_timing_design(DesignPoint.NONSECURE, misses=misses,
                                seed=seed),
            audit_sharded_routing(stream_a, stream_b, seed=seed,
                                  expose_shard=True),
            audit_adaptive_control(seed=seed, taint_signal=True),
        ]
    if inject_leak:
        controls.append(audit_protocol("independent", stream_a, stream_b,
                                       seed=seed, inject_leak=True))
    for control in controls:
        control.name = NEGATIVE_CONTROL + control.name
    return results + controls
