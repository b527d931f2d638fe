"""The tracer: a zero-overhead-when-disabled event firehose.

Every layer of the simulator — the trace CPU, the protocol backends, the
DRAM channels, the link buses, the functional protocol stacks — accepts a
:class:`Tracer` and emits *events* through it:

* **spans** — an interval of work with a name, a category, and a lane
  (``PATH_READ`` on ``sdimm0``, a miss on ``cpu``);
* **instants** — a point occurrence (a PROBE poll, a drain trigger);
* **counters** — a sampled value over time (queue depth, stash occupancy).

The default tracer is :data:`NULL_TRACER`, whose methods are no-ops and
whose ``enabled`` flag is ``False``.  Instrumentation sites in hot paths
guard on ``tracer.enabled`` before building argument dictionaries, so a
run without tracing pays one attribute load and one branch per site —
measured well under the 2% budget on a Figure-8-sized run.

Timestamps are plain integers.  The timing tier uses CPU cycles; the
functional protocol tier (which has no clock) uses logical step counters.
Both are deterministic, so a traced run is byte-for-byte reproducible.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

#: Event categories used across the stack.  ``bus`` and main-channel
#: ``dram`` events are the adversary-visible set (see obs/audit.py).
CATEGORY_CPU = "cpu"
CATEGORY_PROTOCOL = "protocol"
CATEGORY_DRAM = "dram"
CATEGORY_BUS = "bus"
CATEGORY_LINK = "link"
CATEGORY_STASH = "stash"
#: Fault-injection bookkeeping (repro.faults).  Deliberately outside the
#: adversary-visible set: injections and retries are simulator metadata,
#: and the audit must prove the *observable* categories stay identical.
CATEGORY_FAULT = "fault"

#: The instant name of one tree bucket read or written (category ``dram``).
BUCKET_EVENT = "bucket"


class TraceEvent:
    """One recorded event.  Plain slotted object for allocation speed."""

    __slots__ = ("kind", "name", "category", "lane", "start", "duration",
                 "args")

    def __init__(self, kind: str, name: str, category: str, lane: str,
                 start: int, duration: int,
                 args: Optional[Dict[str, object]] = None):
        self.kind = kind            # "span" | "instant" | "counter"
        self.name = name
        self.category = category
        self.lane = lane
        self.start = start
        self.duration = duration    # 0 for instants and counters
        self.args = args or {}

    @property
    def end(self) -> int:
        return self.start + self.duration

    def key(self) -> Tuple:
        """Stable identity tuple (testing and deduplication)."""
        return (self.kind, self.name, self.category, self.lane, self.start,
                self.duration, tuple(sorted(self.args.items())))

    def __repr__(self) -> str:
        return (f"TraceEvent({self.kind}, {self.name!r}, {self.category!r}, "
                f"{self.lane!r}, {self.start}, {self.duration}, {self.args})")


class Tracer:
    """The tracing interface *and* the null implementation.

    ``enabled`` is ``False`` here; every method is a no-op.  Subclasses
    that record must set ``enabled = True`` and override the three event
    methods.  Call sites that build argument dictionaries or compute
    anything nontrivial must guard with ``if tracer.enabled:`` so the
    null tracer stays free.
    """

    enabled = False

    def span(self, name: str, category: str, lane: str, start: int,
             end: int, **args: object) -> None:
        """Record a closed interval ``[start, end)`` of named work."""

    def instant(self, name: str, category: str, lane: str, ts: int,
                **args: object) -> None:
        """Record a point occurrence."""

    def counter(self, name: str, category: str, lane: str, ts: int,
                value: int) -> None:
        """Record a sampled value (queue depth, occupancy...)."""


#: The shared do-nothing tracer every component defaults to.
NULL_TRACER = Tracer()


class CollectingTracer(Tracer):
    """Records every event in memory, in emission order.

    Emission order is deterministic because the simulator is; exporters
    (obs/chrome.py) and the audit (obs/audit.py) preserve it.
    """

    enabled = True

    def __init__(self):
        self.events: List[TraceEvent] = []

    def span(self, name: str, category: str, lane: str, start: int,
             end: int, **args: object) -> None:
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts "
                             f"({start}..{end})")
        self.events.append(TraceEvent("span", name, category, lane,
                                      start, end - start, args))

    def instant(self, name: str, category: str, lane: str, ts: int,
                **args: object) -> None:
        self.events.append(TraceEvent("instant", name, category, lane,
                                      ts, 0, args))

    def counter(self, name: str, category: str, lane: str, ts: int,
                value: int) -> None:
        self.events.append(TraceEvent("counter", name, category, lane,
                                      ts, 0, {"value": value}))

    def __len__(self) -> int:
        return len(self.events)

    def clear(self) -> None:
        self.events.clear()

    # ------------------------------------------------------------------
    # Convenience selectors (tests, reports)
    # ------------------------------------------------------------------

    def spans(self, category: Optional[str] = None,
              name: Optional[str] = None) -> List[TraceEvent]:
        return [event for event in self.events if event.kind == "span"
                and (category is None or event.category == category)
                and (name is None or event.name == name)]

    def counters(self, name: Optional[str] = None) -> List[TraceEvent]:
        return [event for event in self.events if event.kind == "counter"
                and (name is None or event.name == name)]

    def lanes(self) -> List[str]:
        seen: Dict[str, None] = {}
        for event in self.events:
            seen.setdefault(event.lane, None)
        return list(seen)


def trace_bucket_touches(tracer: Tracer, lane: str, ts: int, kind: str,
                         buckets: Iterable[int]) -> None:
    """One ``bucket`` instant per bucket (``kind`` is ``"read"`` or
    ``"write"``): the one record of a tree's bucket touches.

    A CPU-side tree traces on a ``main`` lane, which the adversary audit
    counts as a main channel; an on-DIMM tree on its SDIMM's or split
    way's lane, behind the secure buffer.  Callers guard on
    ``tracer.enabled``.
    """
    for bucket in buckets:
        tracer.instant(BUCKET_EVENT, CATEGORY_DRAM, lane, ts, kind=kind,
                       bucket=bucket)


class StepClock:
    """A logical clock for layers without a cycle model (core protocols).

    Each ``tick()`` advances one step; phase spans in the functional tier
    are one step long, so a protocol access renders as an ordered strip
    of phases in the exported trace.
    """

    __slots__ = ("now",)

    def __init__(self):
        self.now = 0

    def tick(self, steps: int = 1) -> int:
        """Advance and return the *previous* time (span start)."""
        start = self.now
        self.now += steps
        return start


def merge_events(*streams: Iterable[TraceEvent]) -> List[TraceEvent]:
    """Concatenate event streams and order them by (start, emission)."""
    merged: List[TraceEvent] = []
    for stream in streams:
        merged.extend(stream)
    return sorted(merged, key=lambda event: event.start)
