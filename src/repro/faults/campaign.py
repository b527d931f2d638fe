"""Seeded end-to-end fault campaigns over the protocol layer.

A campaign drives one protocol (Independent, Split, or INDEP-SPLIT)
through a deterministic workload while a :class:`FaultPlan` perturbs it,
and reports a detection/recovery scoreboard instead of crashing:

* every injected integrity fault must be *detected* by a verifier
  (PMMAC, Merkle, or the Split counter chain) — the acceptance gate;
* transient faults recover through the retry layer; persistent ones
  exhaust their budget and quarantine the site (Independent designs
  degrade; plain Split has no redundancy and records a terminal event);
* the whole outcome — spec, plan, scoreboard, counters, failures —
  serializes to one canonical JSON payload, so two runs of the same seed
  diff byte-for-byte (the CI smoke job does exactly that).

Campaigns are sweepable: :func:`run_campaign_sweep` is one
:func:`repro.parallel.pool.fanout` call, with entries keyed by spec + plan
digest + code fingerprint.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.designs import (PROTOCOL_DESIGNS, build_protocol,
                                design_sites)
from repro.core.transfer_queue import TransferQueueOverflow
from repro.faults.injector import FaultInjector, SplitFaultDriver, FaultyStore
from repro.faults.plan import FaultPlan
from repro.faults.recovery import (ResilienceStats, ResilientLink,
                                   RetryExhaustedError, RetryPolicy,
                                   RetryingStore, SplitResilienceHandle)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.oram.path_oram import StashOverflowError
from repro.parallel.pool import fanout
from repro.parallel.cache import RunCache
from repro.sim.stats import failure_record_from_exception
from repro.utils.canonical import canonical_json
from repro.utils.rng import DeterministicRng

#: Key material for campaign stores; campaigns always encrypt (a fault
#: layer over unauthenticated storage would have nothing to detect).
_CAMPAIGN_KEY = b"fault-campaign-key"

#: Layout version of a campaign report and of its cache request.
CAMPAIGN_SCHEMA = 2


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign request (picklable, canonical, cache-keyable)."""

    design: str = "independent"
    accesses: int = 64
    levels: int = 5
    sites: int = 2
    seed: int = 2018
    bit_flips: int = 0
    replays: int = 0
    stuck_cells: int = 0
    link_drops: int = 0
    link_duplicates: int = 0
    link_delays: int = 0
    buffer_stalls: int = 0
    max_retries: int = 3
    blocks_per_bucket: int = 4
    block_bytes: int = 64
    stash_capacity: int = 200

    def __post_init__(self) -> None:
        if self.design not in PROTOCOL_DESIGNS:
            raise ValueError(f"unknown design {self.design!r}; "
                             f"expected one of {PROTOCOL_DESIGNS}")
        if self.accesses < 1:
            raise ValueError("a campaign needs at least one access")
        if self.sites < 1:
            raise ValueError("a campaign needs at least one site")
        object.__setattr__(self, "sites",
                           design_sites(self.design, self.sites))

    @property
    def plan_sites(self) -> int:
        """How many fault sites the plan addresses.

        Plain Split is one logical site (bucket slices span every way);
        the Independent designs expose one site per SDIMM / group.
        """
        return 1 if self.design == "split" else self.sites

    def build_plan(self) -> FaultPlan:
        return FaultPlan.generate(
            self.seed, self.accesses, self.plan_sites,
            bit_flips=self.bit_flips, replays=self.replays,
            stuck_cells=self.stuck_cells, link_drops=self.link_drops,
            link_duplicates=self.link_duplicates,
            link_delays=self.link_delays,
            buffer_stalls=self.buffer_stalls)

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CampaignSpec":
        return cls(**{key: payload[key]
                      for key in cls.__dataclass_fields__  # noqa: SLF001
                      if key in payload})


@dataclass
class CampaignOutcome:
    """Everything one campaign produced, JSON-canonical."""

    spec: CampaignSpec
    plan: FaultPlan
    detection: Dict[str, object]
    resilience: Dict[str, object]
    metrics: Dict[str, object]
    quarantined: List[int]
    degraded_accesses: int
    lost_appends: int
    accesses_completed: int
    link_events: int
    terminal: Optional[Dict[str, object]] = None

    @property
    def completed(self) -> bool:
        return self.terminal is None

    @property
    def all_detected(self) -> bool:
        """Every applied integrity fault tripped a verifier."""
        integrity = self.detection["integrity"]
        return integrity["missed"] == 0 and integrity["rate"] == 1.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": CAMPAIGN_SCHEMA,
            "spec": self.spec.to_dict(),
            "plan": self.plan.to_dict(),
            "plan_digest": self.plan.digest(),
            "detection": self.detection,
            "resilience": self.resilience,
            "metrics": self.metrics,
            "quarantined": list(self.quarantined),
            "degraded_accesses": self.degraded_accesses,
            "lost_appends": self.lost_appends,
            "accesses_requested": self.spec.accesses,
            "accesses_completed": self.accesses_completed,
            "link_events": self.link_events,
            "completed": self.completed,
            "all_detected": self.all_detected,
            "terminal": self.terminal,
        }

    def canonical_json(self) -> str:
        return canonical_json(self.to_dict())


# ----------------------------------------------------------------------
# Protocol wiring
# ----------------------------------------------------------------------

def _wire_faults(spec: CampaignSpec, protocol, injector: FaultInjector,
                 policy: RetryPolicy, stats: ResilienceStats
                 ) -> Optional[SplitFaultDriver]:
    """Install the fault/retry proxies; returns the Split driver if any."""
    if spec.design == "independent":
        protocol.wrap_stores(lambda site, store: RetryingStore(
            FaultyStore(injector, site, store), site, policy, stats,
            DeterministicRng(spec.seed, f"faults/retry/{site}")))
        return None
    if spec.design == "split":
        driver = SplitFaultDriver(injector, {0: protocol.buffers})
        protocol.attach_resilience(SplitResilienceHandle(
            policy, stats, DeterministicRng(spec.seed, "faults/retry/0"),
            site=0, heal=driver.heal_for(0)))
        return driver
    driver = SplitFaultDriver(
        injector, {gid: group.split.buffers
                   for gid, group in enumerate(protocol.groups)})
    for gid, group in enumerate(protocol.groups):
        group.split.attach_resilience(SplitResilienceHandle(
            policy, stats, DeterministicRng(spec.seed,
                                            f"faults/retry/{gid}"),
            site=gid, heal=driver.heal_for(gid)))
    return driver


# ----------------------------------------------------------------------
# The campaign driver
# ----------------------------------------------------------------------

def _active_sites(spec: CampaignSpec, protocol, address: int):
    """Which sites the next access will read — arming targets only these.

    Plain Split always reads its one site.  For INDEP-SPLIT the owning
    group is read (harness-side peek at the posmap: the fault driver is
    the experimenter, not the adversary); a quarantined owner is served
    by the degraded path, which reads nothing.
    """
    if spec.design == "split":
        return {0}
    owner = protocol.locate(address)
    if owner in protocol.quarantined:
        return set()
    return {owner}


def build_faulted_protocol(spec: CampaignSpec, plan: FaultPlan,
                           tracer: Tracer = NULL_TRACER):
    """One fully wired faulted protocol: (protocol, injector, driver, stats).

    Shared by :func:`run_campaign` and the faulted bus-trace audit in
    :mod:`repro.obs.audit`, so both exercise the identical machinery.
    """
    policy = RetryPolicy(max_retries=spec.max_retries)
    stats = ResilienceStats()
    protocol = build_protocol(
        spec.design, spec.levels, spec.sites,
        blocks_per_bucket=spec.blocks_per_bucket,
        block_bytes=spec.block_bytes, stash_capacity=spec.stash_capacity,
        seed=spec.seed, key=_CAMPAIGN_KEY, tracer=tracer)
    # Shares the protocol's logical clock so fault-trace instants line up
    # with the link timeline.
    injector = FaultInjector(plan, tracer=tracer, clock=protocol.clock)
    driver = _wire_faults(spec, protocol, injector, policy, stats)
    link_rng = DeterministicRng(spec.seed, "faults/link")
    protocol.link = ResilientLink(protocol.link, injector, stats, policy,
                                  link_rng)
    return protocol, injector, driver, stats


def run_campaign(spec: CampaignSpec, plan: Optional[FaultPlan] = None,
                 tracer: Tracer = NULL_TRACER) -> CampaignOutcome:
    """Run one seeded faulted campaign; never raises on injected faults.

    A campaign with an all-zero plan is byte-identical (same link events,
    same RNG draws, same stores) to driving the bare protocol — the
    wrappers are pass-through until a spec fires.
    """
    if plan is None:
        plan = spec.build_plan()
    protocol, injector, driver, stats = build_faulted_protocol(
        spec, plan, tracer=tracer)

    workload_rng = DeterministicRng(spec.seed, "faults/workload")
    address_space = max(4, min(64, 1 << (spec.levels - 1)))
    completed = 0
    terminal: Optional[Dict[str, object]] = None

    for access_index in range(spec.accesses):
        injector.begin_access(access_index)
        address = workload_rng.randrange(address_space)
        do_write = workload_rng.randrange(2) == 1
        payload = bytes([workload_rng.randrange(256)]) * spec.block_bytes
        for scheduled in injector.take_stall_specs():
            # a transient buffer stall: the protocol clock (and with it
            # every link-event timestamp) slips, shapes are untouched
            for _ in range(max(1, scheduled.delay_steps)):
                protocol.clock.tick()
            stats.buffer_stalls += 1
            injector.note_applied(scheduled)
        if driver is not None:
            driver.arm(access_index,
                       active_sites=_active_sites(spec, protocol, address))
        try:
            if do_write:
                protocol.write(address, payload)
            else:
                protocol.read(address)
        except RetryExhaustedError as error:
            record = failure_record_from_exception(error)
            if hasattr(protocol, "quarantine"):
                protocol.quarantine(error.site)
                stats.note_quarantine(error.site)
                record["action"] = "quarantined"
                stats.failures.append(record)
                continue
            # plain Split has no redundant site to fail over to
            stats.note_terminal(record)
            terminal = stats.failures[-1]
            break
        except (StashOverflowError, TransferQueueOverflow) as error:
            stats.note_terminal(failure_record_from_exception(error))
            terminal = stats.failures[-1]
            break
        completed += 1

    if driver is not None:
        driver.finalize()
    injector.finalize()
    metrics = MetricsRegistry()
    stats.fold_into(metrics)
    degraded = int(getattr(protocol, "degraded_accesses", 0))
    lost = int(getattr(protocol, "lost_appends", 0))
    metrics.counter("faults/degraded_accesses").inc(degraded)
    metrics.counter("faults/lost_appends").inc(lost)
    quarantined = sorted(getattr(protocol, "quarantined", ()))
    return CampaignOutcome(
        spec=spec, plan=plan,
        detection=injector.summary(),
        resilience=stats.as_dict(),
        metrics=metrics.as_dict(),
        quarantined=[int(site) for site in quarantined],
        degraded_accesses=degraded,
        lost_appends=lost,
        accesses_completed=completed,
        link_events=len(protocol.link),
        terminal=terminal)


# ----------------------------------------------------------------------
# Cache requests and the sweep engine
# ----------------------------------------------------------------------

def campaign_request(spec: CampaignSpec) -> Dict[str, object]:
    """The canonical request one campaign's cache key is built from."""
    return {"artifact": "fault-campaign",
            "schema": CAMPAIGN_SCHEMA,
            "spec": spec.to_dict(),
            "plan_digest": spec.build_plan().digest()}


def _campaign_worker(spec: CampaignSpec) -> Dict[str, object]:
    """Pool worker: re-derives everything from the picklable spec."""
    return run_campaign(spec).to_dict()


def run_campaign_sweep(specs: Sequence[CampaignSpec], jobs: int = 1,
                       cache: Optional[RunCache] = None
                       ) -> List[Dict[str, object]]:
    """Run several campaigns; results come back in submission order.

    One :func:`repro.parallel.pool.fanout` call: cache-first, pool with
    serial fallback, bit-identical regardless of completion order.
    """
    outcomes = fanout(specs, _campaign_worker, jobs=jobs, cache=cache,
                      key=campaign_request)
    return [payload for payload, _ in outcomes]
