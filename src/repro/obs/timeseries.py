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

:class:`WindowedTracer` is the seam: it wraps any inner tracer, folds
windows as events arrive, and hands the snapshot list back on
:meth:`WindowedTracer.close`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.obs.metrics import MetricsRegistry, fold_metrics_dict
from repro.obs.tracer import TraceEvent, Tracer

#: Bump when the snapshot layout changes (ledger records embed it).
WINDOW_SCHEMA = 1


class WindowSnapshot:
    """One tumbling window's delta registry."""

    __slots__ = ("index", "window_cycles", "registry")

    def __init__(self, index: int, window_cycles: int):
        self.index = index
        self.window_cycles = window_cycles
        self.registry = MetricsRegistry()

    @property
    def start(self) -> int:
        return self.index * self.window_cycles

    @property
    def end(self) -> int:
        return (self.index + 1) * self.window_cycles

    def as_dict(self) -> Dict[str, object]:
        return {"schema": WINDOW_SCHEMA, "index": self.index,
                "start": self.start, "end": self.end,
                "metrics": self.registry.as_dict()}


class WindowedTracer(Tracer):
    """Tracer wrapper that folds events into tumbling cycle windows.

    Forwards every event to ``inner`` unchanged (pass the run's
    :class:`~repro.obs.tracer.CollectingTracer`, or the null tracer to
    keep only windows), and maintains one :class:`WindowSnapshot` per
    window touched.
    """

    enabled = True

    def __init__(self, inner: Tracer, window_cycles: int):
        if window_cycles <= 0:
            raise ValueError("window_cycles must be positive")
        self.inner = inner
        self.window_cycles = window_cycles
        self._windows: Dict[int, WindowSnapshot] = {}
        self._closed = False

    @property
    def events(self):
        """Delegate to the inner tracer's event list (phase attribution
        and trace export read ``tracer.events`` duck-typed)."""
        return getattr(self.inner, "events", ())

    # -- Tracer interface ----------------------------------------------

    def span(self, name: str, category: str, lane: str, start: int,
             end: int, **args: object) -> None:
        self.inner.span(name, category, lane, start, end, **args)
        self._fold(TraceEvent("span", name, category, lane, start,
                              end - start, args))

    def instant(self, name: str, category: str, lane: str, ts: int,
                **args: object) -> None:
        self.inner.instant(name, category, lane, ts, **args)
        self._fold(TraceEvent("instant", name, category, lane, ts, 0, args))

    def counter(self, name: str, category: str, lane: str, ts: int,
                value: int) -> None:
        self.inner.counter(name, category, lane, ts, value)
        self._fold(TraceEvent("counter", name, category, lane, ts, 0,
                              {"value": value}))

    # -- windowing -----------------------------------------------------

    def _fold(self, event: TraceEvent) -> None:
        if self._closed:
            raise RuntimeError("windowed tracer already closed")
        index = event.start // self.window_cycles
        window = self._windows.get(index)
        if window is None:
            window = self._windows[index] = WindowSnapshot(
                index, self.window_cycles)
        window.registry.from_events((event,))

    def close(self) -> List[WindowSnapshot]:
        """Finalize: every window touched, in index order."""
        self._closed = True
        return [self._windows[index] for index in sorted(self._windows)]


def windows_from_events(events: Iterable[TraceEvent],
                        window_cycles: int) -> List[WindowSnapshot]:
    """Slice an already-collected event stream into tumbling windows."""
    tracer = WindowedTracer(Tracer(), window_cycles)
    for event in events:
        tracer._fold(event)
    return tracer.close()


def windows_to_dicts(snapshots: Iterable[WindowSnapshot]
                     ) -> List[Dict[str, object]]:
    """The JSON-friendly snapshot list (what ``RunResult.windows`` holds)."""
    return [snapshot.as_dict() for snapshot in snapshots]


def fold_windows(snapshots: Iterable[Dict[str, object]]) -> MetricsRegistry:
    """Fold snapshot dicts (in the given order) into one registry.

    Feeding the window-ordered output of :func:`windows_to_dicts` back
    through this reproduces the cumulative
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
