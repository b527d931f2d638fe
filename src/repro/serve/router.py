"""The sharded front-end router: fan out, admit, fold (docs/serving.md).

``serve-sharded`` runs one :class:`~repro.serve.shard.ShardSpec` through
``shards`` persistent worker processes — the warm pools of
:func:`repro.parallel.fanout` — and folds the per-shard outcomes into one
canonical aggregate report:

* **routing** is the consistent-hash plan over leaf-MSB subtrees
  (:class:`~repro.serve.shard.ShardPlan`); every worker re-derives it
  from the spec, so no routing table crosses the process boundary;
* **admission** is per shard: each worker runs its own bounded
  :class:`~repro.serve.scheduler.BatchingScheduler`, so overload sheds
  structured records locally and the aggregate report simply sums them;
* **SLO folding** merges per-shard sojourn samples in shard order into
  one quantile ladder, and folds the per-shard ``MetricsRegistry``
  dumps with :func:`repro.obs.metrics.fold_metrics_dict` — the same
  merge semantics the sweep engine and the time-series windows use;
* **migration** replays the Section IV-C transfer-queue random walk
  over the routed timeline (:func:`~repro.serve.shard.model_migrations`).

The aggregate report keeps the single-server report's section names
(``totals`` / ``queue`` / ``service`` / ``model`` / ``sojourn``), so
:func:`repro.obs.ledger.serve_core` builds ledger records from shard
and aggregate reports alike.  Byte-identity contract: same spec, same
report, for any ``--jobs``, warm or cold pools, cached or fresh.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry, fold_metrics_dict
from repro.parallel import fanout
from repro.parallel.cache import RunCache
from repro.parallel.fingerprint import code_fingerprint
from repro.serve.shard import (ShardSpec, build_plan, model_migrations,
                               route_requests, run_shard)
from repro.serve.slo import _round
from repro.sim.stats import LatencyStats
from repro.utils.rng import DeterministicRng

#: Bump when the aggregate report layout changes (cache entries key on it).
#: 2: adaptive-control sections, migration measured-utilization fields,
#: drain-lottery draw-order fix in the migration replay.
SHARD_SCHEMA = 2


def sharded_cache_key(spec: ShardSpec,
                      fingerprint: Optional[str] = None) -> str:
    """Content hash identifying one sharded serving request."""
    request = {
        "artifact": "serve-sharded",
        "schema": SHARD_SCHEMA,
        "spec": spec.to_dict(),
        "fingerprint": fingerprint if fingerprint is not None
        else code_fingerprint(),
    }
    rendered = json.dumps(request, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(rendered.encode()).hexdigest()


def _shard_worker(task: Tuple[int, Dict[str, object]]
                  ) -> Tuple[int, Dict[str, object]]:
    """Pool worker: one shard, re-derived entirely from the spec dict."""
    shard, payload = task
    return shard, run_shard(ShardSpec.from_dict(payload), shard)


def _fold_latency(sample_lists: List[List[int]], seed: int,
                  stream: str) -> Dict[str, object]:
    """One quantile ladder from per-shard samples, folded in shard order."""
    stats = LatencyStats(sample_rng=DeterministicRng(seed, stream))
    for samples in sample_lists:
        for value in samples:
            stats.record(value)
    return stats.summary()


def fold_shard_reports(spec: ShardSpec,
                       payloads: Sequence[Tuple[int, Dict[str, object]]]
                       ) -> Dict[str, object]:
    """Fold per-shard worker payloads (shard order) into one report."""
    plan = build_plan(spec)
    ordered = sorted(payloads, key=lambda item: item[0])
    reports = [payload["report"] for _, payload in ordered]

    totals = {key: sum(report["totals"][key] for report in reports)
              for key in ("offered", "admitted", "completed", "shed",
                          "coalesced", "batches", "accesses",
                          "plain_accesses")}
    peak_depth = max(report["queue"]["peak_depth"] for report in reports)
    busy = sum(report["service"]["busy_ticks"] for report in reports)
    elapsed = max(report["service"]["elapsed_ticks"] for report in reports)
    accesses = totals["accesses"]
    ticks_per_access = busy / accesses if accesses else 0.0
    utilization = (busy / (spec.shards * elapsed)) if elapsed else 0.0
    rho_offered = _round(sum(report["model"]["rho_offered"]
                             for report in reports) / spec.shards)
    shed_rate = (totals["shed"] / totals["offered"]
                 if totals["offered"] else 0.0)
    from repro.analysis.queueing import mm1k_full_probability

    predicted_full = (mm1k_full_probability(rho_offered, spec.capacity)
                      if rho_offered > 0 else 0.0)

    sojourn = _fold_latency([payload["sojourn_samples"]
                             for _, payload in ordered],
                            spec.seed, "serve-sharded/sojourn")
    tenants = sorted({tenant for _, payload in ordered
                      for tenant in payload["tenant_samples"]})
    per_tenant = {
        tenant: _fold_latency(
            [payload["tenant_samples"].get(tenant, [])
             for _, payload in ordered],
            spec.seed, f"serve-sharded/sojourn/{tenant}")
        for tenant in tenants
    }

    folded_metrics = MetricsRegistry()
    for _, payload in ordered:
        fold_metrics_dict(folded_metrics, payload["metrics"])

    routed = route_requests(spec, plan)
    migration = model_migrations(spec, plan, routed)

    # satellite accounting: the migration queues' public counters land in
    # the folded metrics lane so obs consumers see wasted drain spends
    for key in ("arrivals", "vacancy_services", "drain_services",
                "wasted_drains", "idle_vacancies", "overflows"):
        folded_metrics.counter(f"migration/{key}").inc(sum(
            shard_counters[key]
            for shard_counters in migration["per_shard"].values()))

    control = None
    shard_controls = [report.get("control") for report in reports]
    if any(shard_controls) or "control" in migration:
        migration_control = migration.get("control") or {}
        control = {
            # aggregate decision counts cover every controller in the
            # tier: per-shard admission/morph plus the migration drains
            "decisions": sum(len(section["decisions"])
                             for section in shard_controls if section)
            + len(migration_control.get("decisions", ())),
            "applied": sum(section["applied"]
                           for section in shard_controls if section)
            + migration_control.get("applied", 0),
            "overhead_ticks": sum(section["overhead_ticks"]
                                  for section in shard_controls if section),
            "migration": migration.get("control"),
        }
        # the shard schedulers' own control/* counters arrive via the
        # folded metrics dumps; only the migration controllers (which
        # run router-side, with no per-shard registry) are added here
        folded_metrics.counter("control/decisions").inc(
            len(migration_control.get("decisions", ())))
        folded_metrics.counter("control/applied").inc(
            migration_control.get("applied", 0))

    degraded_reports = [report for report in reports
                        if report["degraded"]["quarantined"]]
    return {
        "schema": SHARD_SCHEMA,
        "spec": spec.to_dict(),
        "plan": {
            "shards": spec.shards,
            "subtrees": spec.subtrees,
            "virtual_nodes": spec.virtual_nodes,
            "assignments": plan.assignments(),
            "shares": [_round(share) for share in plan.shares()],
        },
        "shards": reports,
        "totals": totals,
        "queue": {
            "capacity": spec.capacity,
            "peak_depth": peak_depth,
            "depth_bounded": all(report["queue"]["depth_bounded"]
                                 for report in reports),
        },
        "service": {
            "busy_ticks": busy,
            "elapsed_ticks": elapsed,
            "ticks_per_access": _round(ticks_per_access),
            "utilization": _round(utilization),
        },
        "model": {
            "offered_rate": _round(spec.rate),
            "rho_offered": rho_offered,
            "rho_measured": _round(utilization),
            "mm1k_full_probability": _round(predicted_full, digits=15),
            "shed_rate": _round(shed_rate),
        },
        "sojourn": {
            "aggregate": sojourn,
            "per_tenant": per_tenant,
        },
        "control": control,
        "migration": migration,
        "degraded": {
            "quarantined": list(spec.quarantined),
            "degraded_shards": len(degraded_reports),
            "degraded_accesses": sum(report["degraded"]["degraded_accesses"]
                                     for report in reports),
            "lost_appends": sum(report["degraded"]["lost_appends"]
                                for report in reports),
        },
        "metrics": folded_metrics.as_dict(),
    }


def _sharded_point(task: Tuple[ShardSpec, int]) -> Dict[str, object]:
    """One sharded point: fan the shards out over ``jobs``, then fold."""
    spec, jobs = task
    shards = fanout([(shard, spec.to_dict()) for shard in range(spec.shards)],
                    _shard_worker, jobs=jobs)
    return fold_shard_reports(spec, [payload for payload, _ in shards])


def run_sharded_sweep(specs: Sequence[ShardSpec], jobs: int = 1,
                      cache: Optional[RunCache] = None,
                      meta: Optional[List[Dict[str, object]]] = None
                      ) -> List[Dict[str, object]]:
    """Run several sharded points in submission order.

    The fan-out happens *inside* each point (one task per shard); points
    run one after another in-process, cache-first, so the shard pool is
    reused across them.  The output is byte-identical regardless of
    completion order, ``jobs``, pool temperature or cached replay.

    ``meta``, when given, receives one ``{"wall_ms", "from_cache"}`` dict
    per point (the volatile side-channel the ledger records; never in
    the report).
    """
    fingerprint = code_fingerprint() if cache is not None else None
    outcomes = fanout([(spec, jobs) for spec in specs], _sharded_point,
                      jobs=1, cache=cache,
                      key=lambda task: sharded_cache_key(
                          task[0], fingerprint=fingerprint))
    if meta is not None:
        meta.extend(entry for _, entry in outcomes)
    return [report for report, _ in outcomes]


def run_sharded(spec: ShardSpec, jobs: int = 1,
                cache: Optional[RunCache] = None,
                meta: Optional[List[Dict[str, object]]] = None
                ) -> Dict[str, object]:
    """Run one sharded serving point; returns the aggregate report."""
    return run_sharded_sweep([spec], jobs=jobs, cache=cache, meta=meta)[0]
