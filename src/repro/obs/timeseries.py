"""Cycle-windowed time series: tumbling snapshots of the metrics registry.

The cumulative :class:`~repro.obs.metrics.MetricsRegistry` answers *what
happened over the whole run*; the adaptive-control work the ROADMAP names
needs *what is happening now*.  This module slices the same event stream
into **tumbling windows keyed on simulated cycles**: window ``k`` covers
``[k * window_cycles, (k + 1) * window_cycles)``, and every event is
folded into exactly one window by its start cycle, through
:meth:`MetricsRegistry.from_events` itself, the one event-to-metric
mapping.  Two
consequences fall out by construction:

* **exactness** — folding every window back together (in window order,
  via :func:`~repro.obs.metrics.fold_metrics_dict`) reproduces the
  cumulative registry's counters and histograms *exactly*, and the gauge
  extrema exactly; nothing is sampled or approximated;
* **determinism** — windows derive from the deterministic event stream
  alone, so the snapshot list is byte-identical across ``--jobs`` values
  and cached replays (``tests/test_obs_timeseries.py`` pins this).

Windows are cut once, after the run, from the events the run collected
(:func:`windows_from_events`); there is no live fold.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.obs.metrics import MetricsRegistry, fold_metrics_dict
from repro.obs.tracer import TraceEvent

#: Bump when the snapshot layout changes (ledger records embed it).
WINDOW_SCHEMA = 1


def windows_from_events(events: Iterable[TraceEvent],
                        window_cycles: int) -> List[Dict[str, object]]:
    """Slice a collected event stream into tumbling windows.

    Returns one JSON-friendly snapshot per window touched, in index
    order (what ``RunResult.windows`` holds): ``{schema, index, start,
    end, metrics}``, ``metrics`` being the window's events folded
    through :meth:`MetricsRegistry.from_events`, in stream order.
    """
    if window_cycles <= 0:
        raise ValueError("window_cycles must be positive")
    groups: Dict[int, List[TraceEvent]] = {}
    for event in events:
        groups.setdefault(event.start // window_cycles, []).append(event)
    return [{"schema": WINDOW_SCHEMA, "index": index,
             "start": index * window_cycles,
             "end": (index + 1) * window_cycles,
             "metrics": MetricsRegistry().from_events(groups[index])
             .as_dict()}
            for index in sorted(groups)]


def fold_windows(snapshots: Iterable[Dict[str, object]]) -> MetricsRegistry:
    """Fold snapshot dicts (in the given order) into one registry.

    Feeding the window-ordered output of :func:`windows_from_events`
    back through this reproduces the cumulative
    ``MetricsRegistry().from_events(events)`` view: counters and
    histograms exactly, gauge extrema exactly.  (A gauge's *last* value
    is taken from the last window holding a sample, which equals the
    event-order last whenever samples are emitted in cycle order — true
    of every counter track the simulator emits today.)
    """
    registry = MetricsRegistry()
    for snapshot in snapshots:
        fold_metrics_dict(registry, snapshot["metrics"])
    return registry
