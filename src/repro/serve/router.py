"""The sharded front-end router: fan out, admit, fold (docs/serving.md).

A sharded point — a :class:`~repro.serve.bench.ServeSpec` with
``shards > 1``, swept by ``serve-bench --shards N`` — runs through
``shards`` persistent worker processes (the warm pools of
:func:`repro.parallel.pool.fanout`) and folds the per-shard outcomes into one
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

from typing import Dict, List, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry, fold_metrics_dict
from repro.parallel.pool import fanout
from repro.serve.bench import ServeSpec
from repro.serve.shard import (build_plan, model_migrations, route_requests,
                               run_shard)
from repro.serve.slo import SHARD_SCHEMA, _round
from repro.sim.stats import LatencyStats
from repro.utils.rng import DeterministicRng


def _shard_worker(task: Tuple[ServeSpec, int]
                  ) -> Tuple[int, Dict[str, object]]:
    """Pool worker: one shard, re-derived entirely from the spec."""
    spec, shard = task
    return shard, run_shard(spec, shard)


def _fold_latency(sample_lists: List[List[int]], seed: int,
                  stream: str) -> Dict[str, object]:
    """One quantile ladder from per-shard samples, folded in shard order."""
    stats = LatencyStats(sample_rng=DeterministicRng(seed, stream))
    for samples in sample_lists:
        for value in samples:
            stats.record(value)
    return stats.summary()


def fold_shard_reports(spec: ServeSpec,
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


def fan_out_shards(spec: ServeSpec, jobs: int = 1) -> Dict[str, object]:
    """One sharded point: fan the shards out over ``jobs``, then fold."""
    shards = fanout([(spec, shard) for shard in range(spec.shards)],
                    _shard_worker, jobs=jobs)
    return fold_shard_reports(spec, [payload for payload, _ in shards])
