"""Tumbling cycle windows: exactness, the run seam, determinism."""

import json

import pytest

from repro.config import DesignPoint, small_config
from repro.obs.metrics import MetricsRegistry, fold_metrics_dict
from repro.obs.timeseries import (WINDOW_SCHEMA, fold_windows,
                                  windows_from_events)
from repro.obs.tracer import CollectingTracer, TraceEvent
from repro.parallel.cache import RunCache
from repro.parallel.sweep import SweepPoint, run_sweep
from repro.sim.system import run_simulation


def _collect_events(trace_length=400, design=DesignPoint.FREECURSIVE):
    config = small_config(design)
    tracer = CollectingTracer()
    run_simulation(config, "mcf", trace_length=trace_length, tracer=tracer)
    return tracer.events


class TestSnapshot:
    def test_window_bounds(self):
        event = TraceEvent("instant", "tick", "bus", "lane", 1700, 0)
        (snapshot,) = windows_from_events([event], 500)
        assert (snapshot["index"], snapshot["start"], snapshot["end"]) == \
            (3, 1500, 2000)
        assert snapshot["schema"] == WINDOW_SCHEMA
        assert snapshot["metrics"] == \
            MetricsRegistry().from_events([event]).as_dict()

    def test_validation(self):
        with pytest.raises(ValueError):
            windows_from_events([], 0)


class TestExactness:
    """Folding all windows back together == the cumulative registry."""

    def test_fold_reproduces_cumulative_registry(self):
        events = _collect_events()
        cumulative = MetricsRegistry().from_events(events)
        folded = fold_windows(windows_from_events(events, 1000))
        cum = cumulative.as_dict()
        out = folded.as_dict()
        assert out["counters"] == cum["counters"]
        assert out["histograms"] == cum["histograms"]
        for name, gauge in cum["gauges"].items():
            assert out["gauges"][name]["min"] == gauge["min"]
            assert out["gauges"][name]["max"] == gauge["max"]
            assert out["gauges"][name]["samples"] == gauge["samples"]

    def test_every_event_lands_in_exactly_one_window(self):
        events = _collect_events()
        snapshots = windows_from_events(events, 777)  # awkward width
        span_total = sum(
            sum(h["count"] for h in s["metrics"]["histograms"].values())
            for s in snapshots)
        assert span_total == sum(1 for e in events if e.kind == "span")
        for snapshot, nxt in zip(snapshots, snapshots[1:]):
            assert snapshot["index"] < nxt["index"]

    def test_window_keyed_on_start_cycle(self):
        tracer = CollectingTracer()
        # span straddles the boundary; its start cycle owns it
        tracer.span("straddle", "bus", "lane", 95, 160)
        tracer.instant("tick", "bus", "lane", 100)
        snapshots = windows_from_events(tracer.events, 100)
        assert [s["index"] for s in snapshots] == [0, 1]
        assert snapshots[0]["metrics"]["histograms"][
            "bus/straddle"]["count"] == 1
        assert snapshots[1]["metrics"]["counters"]["bus/tick"] == 1


class TestRunSeam:
    """``run_simulation(window_cycles > 0)`` windows what the run traced."""

    CONFIG = small_config(DesignPoint.INDEP_2)

    def _run(self, **kwargs):
        return run_simulation(self.CONFIG, "mcf", trace_length=300,
                              window_cycles=1000, **kwargs)

    def test_untraced_run_matches_traced_run(self):
        # the run collects its own events, so the phase breakdown is the
        # traced one and not all-idle
        untraced = self._run()
        traced = self._run(tracer=CollectingTracer())
        assert untraced.phase_cycles == traced.phase_cycles
        assert set(untraced.phase_cycles) != {"idle"}
        assert untraced.windows == traced.windows

    def test_windows_cover_only_this_runs_events(self):
        tracer = CollectingTracer()
        first = self._run(tracer=tracer)
        count = len(tracer.events)
        second = self._run(tracer=tracer)
        assert first.windows == windows_from_events(tracer.events[:count],
                                                    1000)
        assert second.windows == windows_from_events(tracer.events[count:],
                                                     1000)

    def test_reused_tracer_attributes_only_this_run(self):
        tracer = CollectingTracer()
        run_simulation(self.CONFIG, "lbm", trace_length=300, tracer=tracer)
        reused = self._run(tracer=tracer)
        assert reused.phase_cycles == \
            self._run(tracer=CollectingTracer()).phase_cycles

    def test_negative_window_is_rejected(self):
        with pytest.raises(ValueError, match="window_cycles"):
            SweepPoint(DesignPoint.INDEP_2, "mcf", window_cycles=-5)


class TestDeterminism:
    """RunResult.windows byte-identical serial vs pool vs cached replay."""

    POINTS = [SweepPoint(DesignPoint.FREECURSIVE, "mcf", trace_length=300,
                         window_cycles=1000),
              SweepPoint(DesignPoint.INDEP_2, "gromacs", trace_length=300,
                         window_cycles=1000)]

    @staticmethod
    def _window_bytes(outcome):
        return json.dumps([entry.result.windows
                           for entry in outcome.results], sort_keys=True)

    def test_serial_vs_pool_byte_identical(self):
        serial = run_sweep(self.POINTS, jobs=1, cache=None)
        pooled = run_sweep(self.POINTS, jobs=2, cache=None)
        assert self._window_bytes(serial) == self._window_bytes(pooled)
        assert all(entry.result.windows for entry in serial.results)

    def test_cached_replay_byte_identical(self, tmp_path):
        cache = RunCache(str(tmp_path / "cache"))
        first = run_sweep(self.POINTS, jobs=1, cache=cache)
        replay = run_sweep(self.POINTS, jobs=1, cache=cache)
        assert all(entry.from_cache for entry in replay.results)
        assert self._window_bytes(first) == self._window_bytes(replay)

    def test_cache_key_separates_window_widths(self, tmp_path):
        cache = RunCache(str(tmp_path / "cache"))
        narrow = SweepPoint(DesignPoint.FREECURSIVE, "mcf",
                            trace_length=300, window_cycles=500)
        run_sweep([self.POINTS[0]], jobs=1, cache=cache)
        second = run_sweep([narrow], jobs=1, cache=cache)
        assert not second.results[0].from_cache

    def test_outcome_fold_windows_matches_direct_event_fold(self):
        outcome = run_sweep(self.POINTS, jobs=1, cache=None)
        folded = fold_windows(
            snapshot for entry in outcome.results
            for snapshot in entry.result.windows).as_dict()
        # the same points, traced directly, folded point-then-event order
        direct = MetricsRegistry()
        for point in self.POINTS:
            tracer = CollectingTracer()
            run_simulation(point.system_config(), point.workload,
                           trace_length=point.trace_length, tracer=tracer)
            fold_metrics_dict(
                direct, MetricsRegistry().from_events(tracer.events)
                .as_dict())
        expected = direct.as_dict()
        assert folded["counters"] == expected["counters"]
        assert folded["histograms"] == expected["histograms"]
