"""Hotspot attribution: where do the simulated cycles go?

Palermo's lesson (PAPERS.md) is that oblivious-memory performance work is
won by fine-grained attribution across protocol and hardware layers.
:func:`exclusive_cycles` sweeps the tracer's span stream and charges
every cycle of every lane to the *innermost* active span (latest start
wins; emission order breaks ties), so nested instrumentation — a PROBE
poll inside a path access inside a miss — attributes each cycle exactly
once.  The resulting top-N table is byte-stable across runs and
machines.  Host time is ``perfbench``'s to measure, not this module's.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.tracer import TraceEvent


def exclusive_cycles(events: Iterable[TraceEvent],
                     category: Optional[str] = None
                     ) -> Dict[Tuple[str, str], Dict[str, int]]:
    """Exclusive-cycle attribution per ``(lane, span name)``.

    Within each lane, at any instant the active span with the greatest
    start cycle (ties: latest emitted, i.e. the innermost) owns the
    cycle.  Returns ``{(lane, name): {"exclusive", "inclusive",
    "count"}}``; per lane, the exclusive values sum exactly to the
    lane's covered-cycle total.
    """
    lanes: Dict[str, List[Tuple[int, int, int, str]]] = {}
    stats: Dict[Tuple[str, str], Dict[str, int]] = {}
    for sequence, event in enumerate(events):
        if event.kind != "span":
            continue
        if category is not None and event.category != category:
            continue
        lanes.setdefault(event.lane, []).append(
            (event.start, event.end, sequence, event.name))
        entry = stats.setdefault((event.lane, event.name),
                                 {"exclusive": 0, "inclusive": 0,
                                  "count": 0})
        entry["inclusive"] += event.duration
        entry["count"] += 1
    for lane in sorted(lanes):
        spans = sorted(lanes[lane])
        boundaries = sorted({edge for span in spans
                             for edge in (span[0], span[1])})
        next_span = 0
        active: List[Tuple[int, int, int, str]] = []
        for left, right in zip(boundaries, boundaries[1:]):
            while next_span < len(spans) and spans[next_span][0] <= left:
                active.append(spans[next_span])
                next_span += 1
            active = [span for span in active if span[1] > left]
            if not active:
                continue
            # innermost: latest start, then latest emission
            owner = max(active, key=lambda span: (span[0], span[2]))
            stats[(lane, owner[3])]["exclusive"] += right - left
    return stats


def hotspots(events: Iterable[TraceEvent], top_n: int = 20,
             category: Optional[str] = None) -> List[Dict[str, object]]:
    """Top-N exclusive-cycle rows, largest first (deterministic order)."""
    stats = exclusive_cycles(events, category=category)
    rows = [{"lane": lane, "name": name,
             "exclusive_cycles": entry["exclusive"],
             "inclusive_cycles": entry["inclusive"],
             "count": entry["count"]}
            for (lane, name), entry in stats.items()]
    rows.sort(key=lambda row: (-row["exclusive_cycles"], row["lane"],
                               row["name"]))
    return rows[:top_n] if top_n else rows


def render_hotspots(rows: List[Dict[str, object]],
                    title: str = "hotspots") -> str:
    """Fixed-width table of hotspot rows."""
    total = sum(row["exclusive_cycles"] for row in rows) or 1
    lines = [f"{title}: top {len(rows)} by exclusive cycles",
             f"{'lane':12s} {'span':16s} {'excl cycles':>12s} "
             f"{'share':>7s} {'count':>8s} {'incl cycles':>12s}"]
    for row in rows:
        share = row["exclusive_cycles"] / total
        lines.append(f"{row['lane']:12s} {row['name']:16s} "
                     f"{row['exclusive_cycles']:12,d} {share:7.1%} "
                     f"{row['count']:8,d} {row['inclusive_cycles']:12,d}")
    return "\n".join(lines)


__all__ = ["exclusive_cycles", "hotspots", "render_hotspots"]
