"""The sweep engine: fan independent simulation points over processes.

Every figure of the paper is a sweep over (design x workload x
trace-length) points, and each point is an independent, deterministic
simulation — embarrassingly parallel work.  :func:`run_sweep` hands the
points to :func:`repro.parallel.pool.fanout`, which supplies the
cache-first lookup, the warm pool with its identical in-process
fallback, submission-order results and the per-point host wall-clock;
this module adds what is specific to simulation points:

* the :class:`SweepPoint` request and its :class:`RunCache` key;
* :func:`execute_point`, the worker that re-derives everything from the
  point (a small picklable description), never from parent state, which
  is what makes the serial and parallel paths indistinguishable;
* folding each worker's metrics into a single
  :class:`~repro.obs.metrics.MetricsRegistry` for the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config import DesignPoint, SystemConfig, table2_config
from repro.obs.metrics import MetricsRegistry, fold_metrics_dict
from repro.parallel.cache import RunCache
from repro.parallel.pool import fanout
from repro.parallel.fingerprint import code_fingerprint
from repro.parallel.serialize import (run_result_from_dict,
                                      run_result_to_dict)
from repro.sim.stats import RunResult


@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation request (picklable, hashable).

    ``config`` overrides the default Table II configuration when given —
    tests sweep :func:`~repro.config.small_config` trees this way.
    """

    design: DesignPoint
    workload: str
    channels: int = 1
    trace_length: int = 4000
    seed: int = 2018
    oram_cache_enabled: bool = True
    window_policy: str = "in-order"
    collect_trace: bool = False
    #: tumbling time-series window size in cycles (0 = no windows);
    #: snapshots ride on ``RunResult.windows`` and round-trip the cache
    window_cycles: int = 0
    config: Optional[SystemConfig] = None

    def system_config(self) -> SystemConfig:
        if self.config is not None:
            return self.config
        return table2_config(self.design, channels=self.channels,
                             oram_cache_enabled=self.oram_cache_enabled,
                             seed=self.seed)


@dataclass
class PointResult:
    """One executed (or cache-served) sweep point."""

    point: SweepPoint
    result: RunResult
    from_cache: bool
    wall_ms: float
    chrome_json: Optional[str] = None


@dataclass
class SweepOutcome:
    """Everything one sweep produced, in submission order."""

    results: List[PointResult]
    metrics: MetricsRegistry
    jobs: int
    cache_stats: Dict[str, int] = field(default_factory=dict)

    def run_results(self) -> List[RunResult]:
        return [entry.result for entry in self.results]

    def fold_windows(self) -> MetricsRegistry:
        """Fold every point's time-series windows into one registry.

        Submission order, then window order — deterministic regardless
        of ``jobs`` or cache hits, so the folded view is byte-identical
        serial vs. pool (``tests/test_obs_timeseries.py`` pins it).
        """
        from repro.obs.timeseries import fold_windows

        snapshots: List[Dict[str, object]] = []
        for entry in self.results:
            snapshots.extend(entry.result.windows)
        return fold_windows(snapshots)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def execute_point(point: SweepPoint) -> Dict[str, object]:
    """Run one point; returns a JSON-friendly payload (cacheable as-is).

    Used verbatim by the serial path and by pool workers, which is the
    determinism argument in one line: both paths run *this* function.
    """
    from repro.obs.tracer import NULL_TRACER, CollectingTracer
    from repro.sim.system import run_simulation

    tracer = CollectingTracer() if point.collect_trace else NULL_TRACER
    result = run_simulation(point.system_config(), point.workload,
                            trace_length=point.trace_length,
                            trace_seed=point.seed,
                            window_policy=point.window_policy,
                            tracer=tracer,
                            window_cycles=point.window_cycles)
    chrome_json = None
    worker_metrics = MetricsRegistry()
    if isinstance(tracer, CollectingTracer):
        from repro.obs.chrome import render_chrome_trace

        chrome_json = render_chrome_trace(tracer.events)
        worker_metrics.from_events(tracer.events)
    return {
        "result": run_result_to_dict(result),
        "chrome_json": chrome_json,
        "metrics": worker_metrics.as_dict(),
    }


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------

def run_sweep(points: Sequence[SweepPoint], jobs: int = 1,
              cache: Optional[RunCache] = None) -> SweepOutcome:
    """Execute every point; results come back in submission order.

    ``jobs <= 1`` (or an unavailable pool) degrades to the in-process
    serial path — same worker function, same output.
    """
    points = list(points)
    metrics = MetricsRegistry()
    metrics.gauge("sweep/jobs").set(max(1, jobs))
    metrics.counter("sweep/points").inc(len(points))
    fingerprint = code_fingerprint() if cache is not None else None

    def key(point: SweepPoint) -> str:
        assert cache is not None
        return cache.key_for(point.system_config(), point.workload,
                             point.trace_length, trace_seed=point.seed,
                             window_policy=point.window_policy,
                             collect_trace=point.collect_trace,
                             window_cycles=point.window_cycles,
                             fingerprint=fingerprint)

    results: List[PointResult] = []
    for point, (payload, meta) in zip(points, fanout(
            points, execute_point, jobs=jobs, cache=cache, key=key)):
        from_cache = bool(meta["from_cache"])
        if cache is not None:
            metrics.counter("sweep/cache_hits" if from_cache
                            else "sweep/cache_misses").inc()
        if not from_cache:
            metrics.counter("sweep/executed").inc()
            metrics.histogram("sweep/wall_ms").record(int(meta["wall_ms"]))
            fold_metrics_dict(metrics, payload["metrics"])
        results.append(PointResult(
            point=point, result=run_result_from_dict(payload["result"]),
            from_cache=from_cache, wall_ms=float(meta["wall_ms"]),
            chrome_json=payload["chrome_json"]))
    return SweepOutcome(results=results, metrics=metrics,
                        jobs=max(1, jobs),
                        cache_stats=cache.stats.as_dict() if cache else {})
