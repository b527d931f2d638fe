"""The sweep engine: fan independent simulation points over processes.

Every figure of the paper is a sweep over (design x workload x
trace-length) points, and each point is an independent, deterministic
simulation — embarrassingly parallel work.  :func:`run_sweep` hands the
points to :func:`repro.parallel.pool.fanout`, which supplies the
cache-first lookup, the warm pool with its identical in-process
fallback, submission-order results and the per-point host wall-clock;
this module adds what is specific to simulation points:

* the :class:`SweepPoint` request and the canonical request the cache
  key is built from (:meth:`SweepPoint.cache_request`);
* :func:`execute_point`, the worker that re-derives everything from the
  point (a small picklable description), never from parent state, which
  is what makes the serial and parallel paths indistinguishable;
* the ``sweep/*`` counters of a :class:`~repro.obs.metrics.MetricsRegistry`
  for the caller, and one ledger record per point
  (:meth:`SweepOutcome.append_ledger`), whose core the point itself
  gives (:meth:`SweepPoint.ledger_core`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from repro.config import DesignPoint, SystemConfig, table2_config
from repro.obs.ledger import append_record, config_digest_hex, simulation_core
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, CollectingTracer, Tracer
from repro.parallel.cache import RunCache
from repro.parallel.pool import fanout
from repro.parallel.serialize import (run_result_from_dict,
                                      run_result_to_dict)
from repro.sim.stats import RunResult
from repro.workloads.spec import get_profile


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

    def __post_init__(self):
        """Reject a point that cannot run, before any work starts."""
        if self.window_cycles < 0:
            raise ValueError(f"window_cycles must be at least 0, "
                             f"got {self.window_cycles}")
        if self.trace_length < 1:
            raise ValueError(f"trace length must be at least 1 to leave a "
                             f"measurement window after the warm-up, got "
                             f"{self.trace_length}")
        get_profile(self.workload)
        self.system_config().validate()

    def system_config(self) -> SystemConfig:
        if self.config is not None:
            return self.config
        return table2_config(self.design, channels=self.channels,
                             oram_cache_enabled=self.oram_cache_enabled,
                             seed=self.seed)

    def cache_request(self) -> Dict[str, object]:
        """Everything the run's result depends on but the code: the
        resolved configuration and the trace and window parameters."""
        return {"config": asdict(self.system_config()),
                "workload": self.workload,
                "trace_length": self.trace_length,
                "seed": self.seed,
                "window_policy": self.window_policy,
                "collect_trace": self.collect_trace,
                "window_cycles": self.window_cycles}

    def simulate(self, tracer: Tracer = NULL_TRACER) -> RunResult:
        """Run the point in this process."""
        from repro.sim.system import run_simulation

        return run_simulation(self.system_config(), self.workload,
                              trace_length=self.trace_length,
                              trace_seed=self.seed,
                              window_policy=self.window_policy,
                              tracer=tracer,
                              window_cycles=self.window_cycles)

    def ledger_core(self, result: RunResult) -> Dict[str, object]:
        """The replay-stable core of this point's ledger record."""
        return simulation_core(self.design.value, self.workload, result,
                               config_digest_hex(self.system_config()),
                               channels=self.channels,
                               trace_length=self.trace_length,
                               seed=self.seed,
                               window_policy=self.window_policy)


@dataclass
class PointResult:
    """One executed (or cache-served) sweep point."""

    point: SweepPoint
    result: RunResult
    from_cache: bool
    wall_ms: float


@dataclass
class SweepOutcome:
    """Everything one sweep produced, in submission order."""

    results: List[PointResult]
    metrics: MetricsRegistry
    jobs: int

    def append_ledger(self, ledger, kind: str) -> None:
        """One ``kind`` ledger record per point, in submission order
        (nothing when ``ledger`` is ``None``)."""
        for entry in self.results:
            append_record(ledger, kind, entry.point.ledger_core(entry.result),
                          self.jobs, wall_ms=entry.wall_ms,
                          from_cache=entry.from_cache)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def execute_point(point: SweepPoint) -> Dict[str, object]:
    """Run one point; returns its ``RunResult`` as a JSON-friendly dict
    (cacheable as-is).

    Used verbatim by the serial path and by pool workers, which is the
    determinism argument in one line: both paths run *this* function.
    A traced point traces into a :class:`CollectingTracer` only for what
    the result itself carries (``phase_cycles``, ``windows``).
    """
    tracer = CollectingTracer() if point.collect_trace else NULL_TRACER
    return run_result_to_dict(point.simulate(tracer))


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
    results: List[PointResult] = []
    for point, (payload, meta) in zip(points, fanout(
            points, execute_point, jobs=jobs, cache=cache,
            key=SweepPoint.cache_request)):
        from_cache = bool(meta["from_cache"])
        if cache is not None:
            metrics.counter("sweep/cache_hits" if from_cache
                            else "sweep/cache_misses").inc()
        if not from_cache:
            metrics.counter("sweep/executed").inc()
            metrics.histogram("sweep/wall_ms").record(int(meta["wall_ms"]))
        results.append(PointResult(
            point=point, result=run_result_from_dict(payload),
            from_cache=from_cache, wall_ms=float(meta["wall_ms"])))
    return SweepOutcome(results=results, metrics=metrics, jobs=max(1, jobs))
