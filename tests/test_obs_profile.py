"""Hotspot attribution: exclusive cycles and the hotspot table."""

from repro.config import DesignPoint, small_config
from repro.obs.profile import exclusive_cycles, hotspots, render_hotspots
from repro.obs.tracer import CollectingTracer, TraceEvent
from repro.sim.system import run_simulation


def _span(name, lane, start, end, category="bus"):
    return TraceEvent("span", name, category, lane, start, end - start, {})


class TestExclusiveCycles:
    def test_innermost_span_owns_the_cycle(self):
        # outer [0, 100), inner [20, 50): inner owns its 30 cycles
        stats = exclusive_cycles([_span("outer", "lane", 0, 100),
                                  _span("inner", "lane", 20, 50)])
        assert stats[("lane", "outer")]["exclusive"] == 70
        assert stats[("lane", "outer")]["inclusive"] == 100
        assert stats[("lane", "inner")]["exclusive"] == 30

    def test_emission_order_breaks_same_start_ties(self):
        stats = exclusive_cycles([_span("first", "lane", 0, 50),
                                  _span("second", "lane", 0, 50)])
        assert stats[("lane", "second")]["exclusive"] == 50
        assert stats[("lane", "first")]["exclusive"] == 0

    def test_exclusive_sums_to_covered_cycles_per_lane(self):
        config = small_config(DesignPoint.FREECURSIVE)
        tracer = CollectingTracer()
        run_simulation(config, "mcf", trace_length=300, tracer=tracer)
        stats = exclusive_cycles(tracer.events)
        lanes = {}
        for (lane, _name), entry in stats.items():
            lanes[lane] = lanes.get(lane, 0) + entry["exclusive"]
        for lane, total in lanes.items():
            spans = [e for e in tracer.events
                     if e.kind == "span" and e.lane == lane]
            edges = sorted({edge for e in spans
                            for edge in (e.start, e.end)})
            covered = sum(right - left
                          for left, right in zip(edges, edges[1:])
                          if any(e.start <= left and e.end >= right
                                 for e in spans))
            assert total == covered, lane

    def test_category_filter_and_non_spans_ignored(self):
        events = [_span("a", "lane", 0, 10, category="bus"),
                  _span("b", "lane", 0, 10, category="dram"),
                  TraceEvent("instant", "x", "bus", "lane", 5, 0, {})]
        stats = exclusive_cycles(events, category="dram")
        assert set(stats) == {("lane", "b")}


class TestHotspots:
    def test_rows_sorted_and_truncated(self):
        events = [_span("big", "lane", 0, 100),
                  _span("small", "lane", 200, 210),
                  _span("mid", "lane", 300, 350)]
        rows = hotspots(events, top_n=2)
        assert [row["name"] for row in rows] == ["big", "mid"]
        assert hotspots(events, top_n=0) == hotspots(events, top_n=99)

    def test_deterministic_across_runs(self):
        config = small_config(DesignPoint.INDEP_2)
        tables = []
        for _ in range(2):
            tracer = CollectingTracer()
            run_simulation(config, "mcf", trace_length=300, tracer=tracer)
            tables.append(hotspots(tracer.events, top_n=10))
        assert tables[0] == tables[1]

    def test_render_is_plain_text_table(self):
        rows = hotspots([_span("path_access", "chan0", 0, 100)])
        text = render_hotspots(rows, title="t")
        assert "path_access" in text and "100.0%" in text
