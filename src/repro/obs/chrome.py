"""Chrome trace-event JSON export (loadable in Perfetto / chrome://tracing).

One process per run, one ``tid`` lane per hardware resource (``cpu``, each
main channel, each SDIMM, each link bus), so a Figure-8 run renders as the
paper's Figure 7 diagram animated over time: path shuffles on the SDIMM
lanes, short protocol messages on the bus lanes, miss spans on the CPU.

The output is deterministic: lane ids are assigned in sorted-lane order,
JSON keys are sorted, and no wall-clock or environment value is embedded —
so the same config + seed yields a byte-identical file (a property the
tier-1 suite asserts).

Timestamp unit note: the trace-event format assumes microseconds.  We emit
raw simulation timestamps (CPU cycles in the timing tier, protocol steps
in the functional tier) as ``ts`` values; read "1 us" in the viewer as
"1 cycle".
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

from repro.obs.tracer import TraceEvent
from repro.utils.canonical import canonical_json

_PID = 1


def _lane_ids(events: List[TraceEvent]) -> Dict[str, int]:
    return {lane: index + 1
            for index, lane in enumerate(sorted({event.lane
                                                 for event in events}))}


def chrome_trace_events(events: Iterable[TraceEvent]) -> List[dict]:
    """Convert tracer events to trace-event dicts (the ``traceEvents`` list)."""
    ordered = list(events)
    lanes = _lane_ids(ordered)
    output: List[dict] = [
        {"ph": "M", "pid": _PID, "tid": 0, "name": "process_name",
         "args": {"name": "repro"}},
    ]
    for lane, tid in sorted(lanes.items(), key=lambda item: item[1]):
        output.append({"ph": "M", "pid": _PID, "tid": tid,
                       "name": "thread_name", "args": {"name": lane}})
    for event in ordered:
        tid = lanes[event.lane]
        if event.kind == "span":
            output.append({
                "ph": "X", "pid": _PID, "tid": tid,
                "name": event.name, "cat": event.category,
                "ts": event.start, "dur": event.duration,
                "args": dict(event.args),
            })
        elif event.kind == "counter":
            output.append({
                "ph": "C", "pid": _PID, "tid": tid,
                "name": f"{event.lane}:{event.name}", "cat": event.category,
                "ts": event.start,
                "args": {"value": event.args.get("value", 0)},
            })
        else:
            output.append({
                "ph": "i", "pid": _PID, "tid": tid, "s": "t",
                "name": event.name, "cat": event.category,
                "ts": event.start, "args": dict(event.args),
            })
    return output


def render_chrome_trace(events: Iterable[TraceEvent]) -> str:
    """The full trace JSON document as a deterministic string."""
    document = {
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs",
                      "timestamp_unit": "simulation cycles"},
        "traceEvents": chrome_trace_events(events),
    }
    return canonical_json(document)


def write_chrome_trace(path: str, events: Iterable[TraceEvent]) -> int:
    """Write the trace to ``path``; returns the number of trace events."""
    rendered = render_chrome_trace(events)
    with open(path, "w") as handle:
        handle.write(rendered)
        handle.write("\n")
    return len(json.loads(rendered)["traceEvents"])
