"""Sharding the serving tier over leaf-MSB subtrees (docs/serving.md).

The Independent protocol already partitions its ORAM tree across SDIMMs
by the most significant bits of the leaf ID
(:meth:`repro.core.independent.IndependentBuffer.owner_of`), and Path
ORAM's per-subtree independence makes that split correct without
cross-shard coordination on the access path.  The serving tier reuses
exactly that key one layer up:

* the global leaf space is cut into ``subtrees`` equal leaf-MSB slices
  (``subtree_of`` is ``owner_of`` with more bits);
* a **consistent-hash ring** (:class:`ShardPlan`) maps each subtree to
  one of ``shards`` persistent worker processes, so growing the shard
  count moves only the subtrees that rehash — not the whole space;
* each shard runs its own full protocol instance and its own bounded
  :class:`~repro.serve.scheduler.BatchingScheduler`, so overload on a
  shard sheds structured ``AdmissionRejected`` records exactly like the
  single-server tier — never unbounded buffering;
* cross-shard block migration — a served block remapping to a leaf
  another shard owns — is modeled by the paper's transfer-queue random
  walk (:class:`~repro.core.transfer_queue.TransferQueue`, Section
  IV-C), with the Figure 13 analytic curves as cross-checks.

Everything here is a pure function of the picklable sharded
:class:`~repro.serve.bench.ServeSpec` (``shards > 1``):
workers re-derive the full timeline and routing from the spec alone,
which is what makes the sharded reports byte-identical for any
``--jobs`` value, across warm and cold pools, and across cached replays.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.serve.bench import ServeSpec, generate_requests, serve_requests
from repro.serve.loadgen import Request
from repro.serve.slo import build_report


class ShardPlan:
    """The deterministic consistent-hash ring over leaf-MSB subtrees.

    Each shard contributes ``virtual_nodes`` ring points; a subtree maps
    to the first ring point clockwise of its own hash.  The ring is a
    pure function of (shards, virtual_nodes), so every process — router,
    worker, auditor — derives the identical assignment with no shared
    state, and adding a shard remaps only the subtrees whose arcs the
    new ring points claim.
    """

    def __init__(self, shards: int, subtrees: int, levels: int,
                 virtual_nodes: int):
        subtree_bits = subtrees.bit_length() - 1
        leaf_bits = levels - 1
        if subtree_bits > leaf_bits:
            raise ValueError("more subtrees than leaves")
        self.shards = shards
        self.subtrees = subtrees
        self.subtree_bits = subtree_bits
        #: right-shift turning an address (== its leaf) into its subtree
        self._shift = leaf_bits - subtree_bits
        points: List[Tuple[int, int]] = []
        for shard in range(shards):
            for node in range(virtual_nodes):
                points.append((self._hash(f"shard:{shard}/node:{node}"),
                               shard))
        points.sort()
        self._ring_keys = [key for key, _ in points]
        self._ring_shards = [shard for _, shard in points]
        self._subtree_shard = [self._ring_lookup(f"subtree:{index}")
                               for index in range(subtrees)]

    @staticmethod
    def _hash(label: str) -> int:
        return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8],
                              "big")

    def _ring_lookup(self, label: str) -> int:
        index = bisect_right(self._ring_keys, self._hash(label))
        return self._ring_shards[index % len(self._ring_shards)]

    def subtree_of(self, address: int) -> int:
        """The leaf-MSB subtree of an address — ``owner_of`` writ small.

        The serving tier maps addresses one-to-one onto leaves
        (``ServeSpec.address_limit`` is one block per leaf), so the top
        ``subtree_bits`` of the address are the top bits of its leaf.
        """
        return address >> self._shift

    def shard_of_subtree(self, subtree: int) -> int:
        return self._subtree_shard[subtree]

    def shard_of_address(self, address: int) -> int:
        return self._subtree_shard[self.subtree_of(address)]

    def assignments(self) -> Dict[str, int]:
        """subtree -> shard, JSON-keyed (the report's routing table)."""
        return {str(index): shard
                for index, shard in enumerate(self._subtree_shard)}

    def shares(self) -> List[float]:
        """Fraction of the leaf space each shard owns."""
        counts = [0] * self.shards
        for shard in self._subtree_shard:
            counts[shard] += 1
        return [count / self.subtrees for count in counts]


def build_plan(spec: ServeSpec) -> ShardPlan:
    """The spec's routing plan (a pure function of the spec)."""
    return ShardPlan(spec.shards, spec.subtrees, spec.levels,
                     spec.virtual_nodes)


def route_requests(spec: ServeSpec,
                   plan: Optional[ShardPlan] = None
                   ) -> List[Tuple[int, Request]]:
    """The full timeline with each request's owning shard, arrival order.

    Pure function of the spec: router, workers and audits all call this
    and agree on the routing without communicating.
    """
    if plan is None:
        plan = build_plan(spec)
    timeline = generate_requests(spec)
    return [(plan.shard_of_address(request.address), request)
            for request in timeline]


# ----------------------------------------------------------------------
# The per-shard worker
# ----------------------------------------------------------------------

def run_shard(spec: ServeSpec, shard: int) -> Dict[str, object]:
    """Serve one shard's slice of the timeline; returns a payload dict.

    The payload carries the canonical per-shard report plus the raw
    material the router folds: the sojourn samples (aggregate and per
    tenant) and the shard's ``MetricsRegistry`` dump.  Everything is
    re-derived from the spec — no parent state crosses the process
    boundary, which is the determinism argument for the pool fan-out.
    """
    if not 0 <= shard < spec.shards:
        raise ValueError(f"shard {shard} out of range")
    routed = route_requests(spec)
    mine = [request for owner, request in routed if owner == shard]
    metrics = MetricsRegistry()
    metrics.gauge("shard/id").set(shard)
    metrics.counter("shard/routed").inc(len(mine))
    protocol, outcome = serve_requests(
        spec, mine, shard=shard, quarantined=shard in spec.quarantined,
        metrics=metrics)
    share = len(mine) / len(routed) if routed else 0.0
    shard_payload = spec.to_dict()
    shard_payload["shard"] = shard
    report = build_report(shard_payload, outcome,
                          queue_capacity=spec.capacity,
                          offered_rate=spec.rate * share)
    report["degraded"] = {
        "quarantined": shard in spec.quarantined,
        "degraded_accesses": int(getattr(protocol, "degraded_accesses", 0)),
        "lost_appends": int(getattr(protocol, "lost_appends", 0)),
    }
    return {
        "report": report,
        "sojourn_samples": list(outcome.sojourn.samples),
        "tenant_samples": {tenant: list(stats.samples)
                           for tenant, stats
                           in sorted(outcome.per_tenant.items())},
        "metrics": metrics.as_dict(),
    }


# ----------------------------------------------------------------------
# Cross-shard migration: the Section IV-C random walk, one tier up
# ----------------------------------------------------------------------

def model_migrations(spec: ServeSpec, plan: ShardPlan,
                     routed: List[Tuple[int, Request]]) -> Dict[str, object]:
    """Replay the transfer-queue random walk over the routed timeline.

    Every served request remaps its block to a fresh uniform leaf (the
    Path ORAM invariant); when the fresh leaf's subtree hashes to a
    different shard, the block crosses shards exactly like an APPEND
    crosses SDIMMs in the paper: the departure vacancy-services the
    source's queue, the arrival joins the destination's bounded
    :class:`~repro.core.transfer_queue.TransferQueue` and may trigger
    its drain lottery.  Overflows are recorded, never raised — the
    serving tier reports pressure instead of crashing on it.

    The ``model`` sub-section carries the Figure 13 cross-checks: the
    M/M/1/K overflow probability at the configured (p, K) *and* at the
    measured busy-server utilization
    (:meth:`~repro.core.transfer_queue.TransferQueue.measured_utilization`)
    — the configured rho lies once a controller makes *p* time-varying,
    so the measured estimator is the comparison of record — plus the
    undrained first-passage probability, what the walk would have done
    with no drain at all.

    With ``spec.adapt`` a :class:`~repro.control.drain.DrainController`
    per shard re-plans its queue's *p* at every tick-window boundary
    toward the overflow budget the open-loop configuration implies; the
    decisions ride in the returned ``control`` sub-section.
    """
    from repro.analysis.queueing import (mm1k_full_probability,
                                         transfer_queue_overflow_probability)
    from repro.analysis.random_walk import first_passage_overflow_probability
    from repro.control.drain import DrainController
    from repro.core.transfer_queue import (TransferQueue,
                                           TransferQueueOverflow)
    from repro.oram.bucket import Block
    from repro.utils.rng import DeterministicRng

    remap = DeterministicRng(spec.seed, "serve-sharded/migration")
    queues = [TransferQueue(spec.migration_capacity, spec.migration_drain,
                            DeterministicRng(spec.seed,
                                             f"serve-sharded/queue/{index}"))
              for index in range(spec.shards)]
    controllers = decisions = None
    window_ticks = 0
    if spec.adapt:
        # the adaptive set-point keeps the budget the open-loop config
        # implied; only the measured arrival fraction is tracked
        budget = transfer_queue_overflow_probability(
            spec.migration_drain, spec.migration_capacity)
        controllers = [
            DrainController(spec.migration_capacity, spec.migration_drain,
                            overflow_budget=max(budget, 1e-12),
                            name=f"drain/{index}")
            for index in range(spec.shards)
        ]
        decisions = []
        window_ticks = spec.effective_window_ticks
    shares = plan.shares()
    migrations = 0
    expected = 0.0
    offered = 0
    next_window = 1
    for shard, request in routed:
        if controllers is not None:
            while next_window * window_ticks <= request.arrival:
                for index, controller in enumerate(controllers):
                    decision = controller.plan(
                        next_window - 1, next_window * window_ticks,
                        queues[index].arrivals, offered)
                    decisions.append(decision)
                    if decision.applied:
                        queues[index].set_drain_probability(
                            decision.after["p"])
                next_window += 1
        offered += 1
        expected += 1.0 - shares[shard]
        fresh = remap.randrange(spec.address_limit)
        destination = plan.shard_of_address(fresh)
        if destination == shard:
            continue
        migrations += 1
        # the departing block frees a slot at the source: a queued
        # in-flight block fills the vacancy for free (Section IV-C)
        queues[shard].service(via_drain=False)
        try:
            drain = queues[destination].push(
                Block(request.address, fresh, b""))
        except TransferQueueOverflow:
            continue  # counted by the queue's own overflow statistics
        if drain:
            queues[destination].service(via_drain=True)
    accesses = len(routed)
    overflows = sum(queue.overflows for queue in queues)
    arrivals = sum(queue.arrivals for queue in queues)
    taken = sum(queue.vacancy_services + queue.drain_services
                for queue in queues)
    opportunities = sum(queue.service_opportunities for queue in queues)
    measured_rho = taken / opportunities if opportunities else None
    payload = {
        "capacity": spec.migration_capacity,
        "drain_probability": round(spec.migration_drain, 9),
        "accesses": accesses,
        "migrations": migrations,
        "migration_fraction": round(migrations / accesses, 9)
        if accesses else 0.0,
        "expected_migration_fraction": round(expected / accesses, 9)
        if accesses else 0.0,
        "overflows": overflows,
        "overflow_rate": round(overflows / arrivals, 9) if arrivals else 0.0,
        "measured_utilization": (round(measured_rho, 9)
                                 if measured_rho is not None else None),
        "per_shard": {
            str(index): dict(
                queue.counters_dict(),
                measured_utilization=(
                    round(queue.measured_utilization(), 9)
                    if queue.measured_utilization() is not None else None),
                drain_probability=round(queue.drain_probability, 9),
            )
            for index, queue in enumerate(queues)
        },
        "model": {
            "mm1k_overflow_probability": round(
                transfer_queue_overflow_probability(
                    spec.migration_drain, spec.migration_capacity), 15),
            # the comparison of record: predicted overflow at the
            # *measured* utilization, honest under time-varying p
            "mm1k_overflow_at_measured": round(
                mm1k_full_probability(measured_rho,
                                      spec.migration_capacity), 15)
            if measured_rho is not None else None,
            "undrained_first_passage": round(
                first_passage_overflow_probability(
                    spec.migration_capacity, max(1, migrations)), 15),
        },
    }
    if controllers is not None:
        payload["control"] = {
            "window_ticks": window_ticks,
            "decisions": [decision.to_dict() for decision in decisions],
            "applied": sum(1 for decision in decisions if decision.applied),
            "final": {str(index): round(queue.drain_probability, 9)
                      for index, queue in enumerate(queues)},
        }
    return payload
