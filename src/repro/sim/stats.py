"""Result containers and summary statistics for simulation runs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


def nearest_rank(ordered: Sequence[int], fraction: float) -> int:
    """Nearest-rank percentile: the ceil(fraction * n)-th smallest.

    ``ordered`` is sorted and non-empty.  The textbook nearest-rank
    definition — ``int(fraction * n)`` as an index overshoots by one rank
    for every non-boundary fraction (for three samples it reports the
    *second* smallest as p50's neighbour p34, and the maximum as p67).
    """
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


@dataclass
class LatencyStats:
    """Streaming latency accumulator (per-miss service latency).

    Holds at most ``sample_cap`` samples via reservoir sampling (Vitter's
    Algorithm R), so percentile estimates stay unbiased over the whole
    run instead of reflecting only the warm-up-adjacent prefix.  The
    reservoir draws from ``sample_rng`` — a caller-provided seeded stream
    (DET001: no ambient entropy) — and falls back to plain first-N
    capping when no RNG is supplied, which keeps sub-cap runs exact
    either way.
    """

    count: int = 0
    total: int = 0
    maximum: int = 0
    samples: List[int] = field(default_factory=list)
    sample_cap: int = 100_000
    sample_rng: Optional[object] = None   # DeterministicRng or None

    def record(self, latency: int) -> None:
        self.count += 1
        self.total += latency
        if latency > self.maximum:
            self.maximum = latency
        if len(self.samples) < self.sample_cap:
            self.samples.append(latency)
        elif self.sample_rng is not None:
            # Algorithm R: keep each of the n seen values with P = cap/n.
            slot = self.sample_rng.randrange(self.count)
            if slot < self.sample_cap:
                self.samples[slot] = latency

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> int:
        """The :func:`nearest_rank` percentile of the samples (0 if none)."""
        if not self.samples:
            return 0
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        return nearest_rank(sorted(self.samples), fraction)

    def summary(self) -> Dict[str, object]:
        """The SLO quantile ladder as one JSON-friendly dict.

        One sort serves every quantile (``percentile`` re-sorts per call),
        so per-tenant SLO reports stay cheap even at large sample counts.
        """
        if not self.samples:
            return {"count": self.count, "mean": 0.0, "max": 0,
                    "p50": 0, "p95": 0, "p99": 0, "p999": 0}
        ordered = sorted(self.samples)
        return {"count": self.count, "mean": self.mean,
                "max": self.maximum,
                "p50": nearest_rank(ordered, 0.50),
                "p95": nearest_rank(ordered, 0.95),
                "p99": nearest_rank(ordered, 0.99),
                "p999": nearest_rank(ordered, 0.999)}


@dataclass
class RunResult:
    """Everything one simulation run produced."""

    design: str
    workload: str
    execution_cycles: int
    miss_count: int
    accessoram_count: int
    llc_hit_rate: float
    miss_latency: LatencyStats
    #: per-channel DRAM event counters (main channels then SDIMM-internal)
    channel_counters: List[Dict[str, int]]
    #: counters from SDIMM-internal channels only
    on_dimm_counters: List[Dict[str, int]]
    #: main-channel bus traffic (SDIMM designs) in line-equivalents
    main_bus_lines: int
    probe_commands: int
    drain_accesses: int
    #: rank state residency per channel for the energy model
    rank_residencies: List[Dict[str, int]] = field(default_factory=list)
    #: exclusive per-phase cycle attribution of the measured window
    #: (repro.obs.metrics.phase_breakdown); empty without a tracer
    phase_cycles: Dict[str, int] = field(default_factory=dict)
    extras: Dict[str, float] = field(default_factory=dict)
    #: structured terminal-event records (integrity faults, overflows),
    #: each with at least ``kind`` and ``detail``.  No timing backend
    #: holds data that a fault could corrupt, so a simulated run leaves
    #: this empty; reports and cache entries keep the field.
    failures: List[Dict[str, object]] = field(default_factory=list)
    #: tumbling cycle-window snapshots (repro.obs.timeseries) when the
    #: run asked for them via ``window_cycles``; empty otherwise.  Each
    #: entry is one window of ``windows_from_events`` — folding them in
    #: order reproduces the run's cumulative metrics registry exactly.
    windows: List[Dict[str, object]] = field(default_factory=list)

    @property
    def completed_clean(self) -> bool:
        return not self.failures

    @property
    def accessorams_per_miss(self) -> float:
        return (self.accessoram_count / self.miss_count
                if self.miss_count else 0.0)

    def speedup_over(self, baseline: "RunResult") -> float:
        """How much faster this run is than ``baseline`` (>1 = faster)."""
        if self.execution_cycles == 0:
            return float("inf")
        return baseline.execution_cycles / self.execution_cycles

    def normalized_time(self, baseline: "RunResult") -> float:
        """Execution time normalized to ``baseline`` (<1 = faster)."""
        if baseline.execution_cycles == 0:
            return float("inf")
        return self.execution_cycles / baseline.execution_cycles

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly summary (for tooling and result archives)."""
        return {
            "design": self.design,
            "workload": self.workload,
            "execution_cycles": self.execution_cycles,
            "miss_count": self.miss_count,
            "accessoram_count": self.accessoram_count,
            "accessorams_per_miss": self.accessorams_per_miss,
            "llc_hit_rate": self.llc_hit_rate,
            "mean_miss_latency": self.miss_latency.mean,
            "p95_miss_latency": self.miss_latency.percentile(0.95),
            "main_bus_lines": self.main_bus_lines,
            "probe_commands": self.probe_commands,
            "drain_accesses": self.drain_accesses,
            "channel_counters": self.channel_counters,
            "phase_cycles": dict(sorted(self.phase_cycles.items())),
            "failures": [dict(record) for record in self.failures],
        }


def failure_record_from_exception(error: BaseException) -> Dict[str, object]:
    """Flatten a detection exception into a JSON-friendly failure record.

    Picks up the structured fields the integrity/overflow exceptions carry
    (``index``, ``expected_counter``, ``bucket``, ``way``, ``occupancy``,
    ``capacity``, plus their ``kind`` discriminator as ``fault_kind``) so
    a failure record preserves everything a traceback would have shown,
    minus the crash.
    """
    record: Dict[str, object] = {
        "kind": type(error).__name__,
        "detail": str(error),
    }
    for attr in ("index", "expected_counter", "bucket", "way",
                 "occupancy", "capacity", "site", "sdimm", "attempts"):
        value = getattr(error, attr, None)
        if value is not None:
            record[attr] = value
    discriminator = getattr(error, "kind", None)
    if isinstance(discriminator, str):
        record["fault_kind"] = discriminator
    return record


def geometric_mean(values: List[float]) -> float:
    """Geometric mean, the standard aggregate for normalized times."""
    if not values:
        raise ValueError("need at least one value")
    if any(value <= 0 for value in values):
        raise ValueError("geometric mean requires positive values")
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))
