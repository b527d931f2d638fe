"""SLO reporting: sojourn-time quantiles against the Section IV-C model.

A serving run collapses to one canonical JSON report:

* **sojourn quantiles** — p50/p95/p99/p999 of (completion - arrival),
  per tenant and aggregate, via
  :meth:`repro.sim.stats.LatencyStats.summary`;
* **admission accounting** — offered / admitted / shed / coalesced, the
  shed records themselves, and the peak queue depth (which the bounded
  queue guarantees never exceeds K);
* **the analytic cross-check** — measured utilization rho and the
  M/M/1/K full probability
  :func:`repro.analysis.queueing.mm1k_full_probability` at the same
  (rho, K).  The backend's service time is near-deterministic (fixed
  link shape per access), so the measured shed rate of this M/D/1/K-like
  system sits at or below the M/M/1/K prediction — the model is the
  paper's reference curve and an upper envelope, not an equality.

Reports are rendered by :func:`repro.utils.canonical.canonical_json`, so
two runs of the same spec — serial, parallel, or cache-served — compare
byte-for-byte.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.queueing import mm1k_full_probability
from repro.serve.scheduler import SchedulerOutcome
from repro.utils.canonical import canonical_json  # noqa: F401

#: Bump when the report layout changes (cache entries key on this).
#: 2: adaptive-control section (``control``), plain-access totals.
REPORT_SCHEMA = 2

#: Bump when the sharded aggregate layout changes (cache entries key on it).
#: 2: adaptive-control sections, migration measured-utilization fields,
#: drain-lottery draw-order fix in the migration replay.
SHARD_SCHEMA = 2


def _round(value: float, digits: int = 9) -> float:
    """Stabilize float fields against accumulation-order noise.

    Every number in a report is computed single-threaded from a
    deterministic run, so this is belt-and-braces: it also keeps the JSON
    rendering compact and diff-friendly.
    """
    return round(float(value), digits)


def build_report(spec_payload: Dict[str, object],
                 outcome: SchedulerOutcome,
                 queue_capacity: int,
                 offered_rate: float) -> Dict[str, object]:
    """One serving run -> one canonical, JSON-ready report dict."""
    ticks_per_access = outcome.ticks_per_access
    rho_measured = outcome.utilization
    rho_offered = (offered_rate * ticks_per_access
                   if ticks_per_access else 0.0)
    prediction_rho = rho_offered if rho_offered else rho_measured
    predicted_full = (mm1k_full_probability(prediction_rho, queue_capacity)
                      if prediction_rho > 0 else 0.0)
    return {
        "schema": REPORT_SCHEMA,
        "spec": spec_payload,
        "totals": {
            "offered": outcome.offered,
            "admitted": outcome.admitted,
            "completed": len(outcome.completions),
            "shed": len(outcome.shed),
            "coalesced": outcome.coalesced,
            "batches": outcome.batches,
            "accesses": outcome.accesses,
            "plain_accesses": outcome.plain_accesses,
        },
        "control": outcome.control_payload,
        "queue": {
            "capacity": queue_capacity,
            "peak_depth": outcome.peak_depth,
            "depth_bounded": outcome.peak_depth <= queue_capacity,
        },
        "service": {
            "busy_ticks": outcome.busy_ticks,
            "elapsed_ticks": outcome.elapsed_ticks,
            "ticks_per_access": _round(ticks_per_access),
            "utilization": _round(rho_measured),
        },
        "model": {
            "offered_rate": _round(offered_rate),
            "rho_offered": _round(rho_offered),
            "rho_measured": _round(rho_measured),
            "mm1k_full_probability": _round(predicted_full, digits=15),
            "shed_rate": _round(outcome.shed_rate),
        },
        "sojourn": {
            "aggregate": outcome.sojourn.summary(),
            "per_tenant": {tenant: stats.summary()
                           for tenant, stats
                           in sorted(outcome.per_tenant.items())},
        },
        "shed_records": [record.to_dict() for record in outcome.shed],
    }


def compare_with_model(report: Dict[str, object]) -> Dict[str, float]:
    """Measured shed rate next to the M/M/1/K reference at matched rho.

    Returns the pair plus their gap; callers (tests, the CLI table)
    decide tolerance.  With deterministic service the measurement should
    not exceed the Markovian prediction by more than sampling noise.
    """
    model = report["model"]
    # rho_offered == 0.0 is a legitimate zero-rate measurement, not an
    # absence — only fall back to the measured value when the field is
    # actually missing (``or`` would silently swap in rho_measured).
    rho_offered = model.get("rho_offered")
    return {
        "rho": (model["rho_measured"] if rho_offered is None
                else rho_offered),
        "predicted_full_probability": model["mm1k_full_probability"],
        "measured_shed_rate": model["shed_rate"],
        "gap": model["shed_rate"] - model["mm1k_full_probability"],
    }


def render_table(reports, title: Optional[str] = None) -> str:
    """A fixed-width sweep table (rate, rho, quantiles, shed)."""
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{'rate':>8s} {'rho':>6s} {'util':>6s} {'p50':>7s} "
                 f"{'p95':>7s} {'p99':>7s} {'p999':>7s} {'shed':>7s} "
                 f"{'mm1k':>9s}")
    for report in reports:
        model = report["model"]
        agg = report["sojourn"]["aggregate"]
        lines.append(
            f"{model['offered_rate']:8.4f} {model['rho_offered']:6.2f} "
            f"{report['service']['utilization']:6.2f} "
            f"{agg['p50']:7d} {agg['p95']:7d} {agg['p99']:7d} "
            f"{agg['p999']:7d} {model['shed_rate']:7.2%} "
            f"{model['mm1k_full_probability']:9.1e}")
    return "\n".join(lines)
