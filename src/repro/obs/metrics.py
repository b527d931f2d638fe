"""Metrics on top of the event stream: counters, gauges, histograms, and
the per-phase cycle breakdown that extends :class:`RunResult`.

The breakdown answers the question the paper's evaluation keeps asking —
*where do the cycles go?* — by attributing every cycle of the measured
window to exactly one protocol phase.  Phases overlap freely across lanes
(that overlap is the Independent protocol's whole point), so the
attribution is an exclusive timeline sweep: at any instant the cycle is
charged to the highest-priority phase active anywhere in the system, and
instants covered by no phase are charged to ``idle`` (core compute, LLC
hits, dead time).  By construction the breakdown sums *exactly* to the
window length, which is what makes it trustworthy as an accounting.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.tracer import CATEGORY_PROTOCOL, TraceEvent

#: Attribution priority, most-specific first: a PROBE poll inside a path
#: access charges to PROBE, the surrounding path access soaks up the rest.
PHASE_PRIORITY: Tuple[str, ...] = (
    "PROBE",
    "FETCH_RESULT",
    "ACCESS",
    "APPEND",
    "DRAIN",
    "METADATA",
    "FETCH_STASH",
    "RECEIVE_LIST",
    "FETCH_DATA",
    "PATH_READ",
    "PATH_WRITE",
)

#: Cycles covered by no protocol phase (compute, hits, queue dead time).
IDLE_PHASE = "idle"


def _priority(name: str) -> Tuple[int, str]:
    try:
        return (PHASE_PRIORITY.index(name), name)
    except ValueError:
        return (len(PHASE_PRIORITY), name)


def phase_breakdown(events: Iterable[TraceEvent], window_start: int,
                    window_end: int,
                    category: str = CATEGORY_PROTOCOL) -> Dict[str, int]:
    """Exclusive per-phase cycle attribution over ``[window_start, window_end)``.

    Returns ``{phase: cycles}`` including :data:`IDLE_PHASE`; values sum
    exactly to ``window_end - window_start``.  Runs in O(n log n) over the
    span count via a lazy-deletion priority sweep.
    """
    if window_end <= window_start:
        return {}
    spans: List[Tuple[int, int, Tuple[int, str]]] = []
    for event in events:
        if event.kind != "span" or event.category != category:
            continue
        start = max(event.start, window_start)
        end = min(event.end, window_end)
        if end > start:
            spans.append((start, end, _priority(event.name)))
    breakdown: Dict[str, int] = {}
    if not spans:
        breakdown[IDLE_PHASE] = window_end - window_start
        return breakdown
    spans.sort(key=lambda item: item[0])
    boundaries = sorted({window_start, window_end}
                        | {span[0] for span in spans}
                        | {span[1] for span in spans})
    boundaries = [b for b in boundaries
                  if window_start <= b <= window_end]
    active: List[Tuple[Tuple[int, str], int, int]] = []  # (prio, seq, end)
    next_span = 0
    sequence = 0
    for left, right in zip(boundaries, boundaries[1:]):
        while next_span < len(spans) and spans[next_span][0] <= left:
            start, end, priority = spans[next_span]
            heapq.heappush(active, (priority, sequence, end))
            sequence += 1
            next_span += 1
        # lazy deletion: expired spans can never become active again
        while active and active[0][2] <= left:
            heapq.heappop(active)
        phase = active[0][0][1] if active else IDLE_PHASE
        breakdown[phase] = breakdown.get(phase, 0) + (right - left)
    return breakdown


# ----------------------------------------------------------------------
# A small metrics registry for ad-hoc aggregation over a run
# ----------------------------------------------------------------------

class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount


class Gauge:
    """A point-in-time value with its observed extremes."""

    __slots__ = ("name", "value", "minimum", "maximum", "_seen")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self.minimum = 0
        self.maximum = 0
        self._seen = False

    def set(self, value: int) -> None:
        self.value = value
        if not self._seen:
            self.minimum = value
            self.maximum = value
            self._seen = True
        else:
            self.minimum = min(self.minimum, value)
            self.maximum = max(self.maximum, value)

    def adjust(self, delta: int) -> None:
        """Shift the gauge by ``delta`` (queue depths, in-flight counts)."""
        self.set(self.value + delta)


class Histogram:
    """Power-of-two bucketed latency/size histogram."""

    __slots__ = ("name", "buckets", "count", "total")

    def __init__(self, name: str):
        self.name = name
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0

    def record(self, value: int) -> None:
        if value < 0:
            raise ValueError("histogram values must be non-negative")
        bucket = value.bit_length()          # 0 -> 0, [2^k, 2^k+1) -> k+1
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form; an empty histogram renders as the explicit
        null summary (zero count/total, no buckets) — never a traceback."""
        return {"count": self.count, "total": self.total,
                "buckets": {str(k): v
                            for k, v in sorted(self.buckets.items())}}


class MetricsRegistry:
    """Named metric store shared by instrumentation sites."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def from_events(self, events: Iterable[TraceEvent]) -> "MetricsRegistry":
        """Fold an event stream into the registry (one pass).

        Spans feed a duration histogram per name, counters feed gauges,
        instants feed counts — the aggregate view of a collected trace.
        """
        for event in events:
            qualified = f"{event.category}/{event.name}"
            if event.kind == "span":
                self.histogram(qualified).record(event.duration)
            elif event.kind == "counter":
                self.gauge(qualified).set(int(event.args.get("value", 0)))
                self.counter(qualified + "/samples").inc()
            else:
                self.counter(qualified).inc()
        return self

    def as_dict(self) -> Dict[str, object]:
        return {
            "counters": {name: counter.value
                         for name, counter in sorted(self._counters.items())},
            "gauges": {name: {"last": gauge.value, "min": gauge.minimum,
                              "max": gauge.maximum}
                       for name, gauge in sorted(self._gauges.items())},
            "histograms": {name: histogram.as_dict()
                           for name, histogram
                           in sorted(self._histograms.items())},
        }


def fold_metrics_dict(target: MetricsRegistry,
                      payload: Dict[str, object]) -> MetricsRegistry:
    """Fold one ``MetricsRegistry.as_dict()`` payload into ``target``.

    The merge semantics every fan-out in the tree shares (sweep workers,
    serving points, time-series windows): counters and histograms are
    additive; gauges keep the min of minima, the max of maxima, and take
    their last value from the *last payload folded* — so callers must
    fold in a deterministic order (submission order for workers, window
    order for time series).
    """
    for name, value in payload.get("counters", {}).items():
        target.counter(name).inc(int(value))
    for name, stats in payload.get("gauges", {}).items():
        gauge = target.gauge(name)
        gauge.set(int(stats["min"]))
        gauge.set(int(stats["max"]))
        gauge.set(int(stats["last"]))
    for name, stats in payload.get("histograms", {}).items():
        histogram = target.histogram(name)
        for bucket, count in stats.get("buckets", {}).items():
            histogram.buckets[int(bucket)] = (
                histogram.buckets.get(int(bucket), 0) + int(count))
        histogram.count += int(stats.get("count", 0))
        histogram.total += int(stats.get("total", 0))
    return target


def summarize_phase_breakdown(breakdown: Dict[str, int],
                              total: Optional[int] = None) -> List[str]:
    """Human-readable breakdown lines, largest share first."""
    if total is None:
        total = sum(breakdown.values())
    lines = []
    for phase, cycles in sorted(breakdown.items(),
                                key=lambda item: (-item[1], item[0])):
        share = cycles / total if total else 0.0
        lines.append(f"{phase:14s} {cycles:14,d}  {share:6.1%}")
    return lines
