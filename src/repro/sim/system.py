"""Full-system assembly: config + workload -> one measured run.

This is the USIMM-equivalent entry point the benchmarks call: pick a
design point (Figure 7), build its backend, generate the workload's miss
trace, warm up, and measure.
"""

from __future__ import annotations

import gc
from itertools import islice
from typing import Optional

from repro.config import SystemConfig
from repro.obs.tracer import NULL_TRACER, CollectingTracer, Tracer
from repro.sim.backends import BACKEND_CLASSES
from repro.sim.cpu import SimulationDriver
from repro.sim.events import EventQueue
from repro.sim.stats import RunResult
from repro.workloads.spec import WorkloadProfile, get_profile
from repro.workloads.synthetic import iterate_trace


def build_backend(config: SystemConfig, events: Optional[EventQueue] = None,
                  tracer: Tracer = NULL_TRACER):
    """Instantiate the memory backend for a validated configuration."""
    config.validate()
    backend_class = BACKEND_CLASSES.get(config.design)
    if backend_class is None:
        raise ValueError(f"no backend for design {config.design}")
    return backend_class(config, events if events is not None
                         else EventQueue(), tracer=tracer)


def run_simulation(config: SystemConfig,
                   workload,
                   trace_length: int = 20_000,
                   warmup_records: Optional[int] = None,
                   trace_seed: int = 2018,
                   window_policy: str = "in-order",
                   tracer: Tracer = NULL_TRACER,
                   window_cycles: int = 0) -> RunResult:
    """Run one (design, workload) pair and return its measurements.

    ``workload`` is a profile name from
    :data:`repro.workloads.spec.SPEC_PROFILES` or a
    :class:`~repro.workloads.spec.WorkloadProfile`.  Following the
    paper's methodology the first portion of the trace warms the LLC/PLB
    and DRAM state; measurements cover the remainder.  The paper uses
    1M + 1M accesses — scale ``trace_length`` up for higher fidelity runs
    (the default keeps a full benchmark sweep tractable in pure Python).

    ``window_cycles > 0`` is the time-series seam: the run traces into
    ``tracer`` (a :class:`~repro.obs.tracer.CollectingTracer`, or a fresh
    one when none is given), and the events it appends are cut into
    tumbling cycle windows afterwards
    (:func:`repro.obs.timeseries.windows_from_events`), whose snapshots
    land on ``RunResult.windows``.  Collecting costs memory the way a
    trace export does.
    """
    if isinstance(workload, WorkloadProfile):
        profile = workload
    else:
        profile = get_profile(workload)
    if warmup_records is None:
        warmup_records = trace_length // 3
    if warmup_records >= trace_length:
        raise ValueError("warm-up must leave a measurement window")

    if window_cycles > 0:
        if not tracer.enabled:
            tracer = CollectingTracer()
        first_event = len(tracer.events)
    trace = iterate_trace(profile, trace_length, seed=trace_seed)
    result = _drive(config, trace, mlp=profile.mlp,
                    workload_name=profile.name,
                    warmup_records=warmup_records,
                    window_policy=window_policy, tracer=tracer)
    if window_cycles > 0:
        from repro.obs.timeseries import windows_from_events

        result.windows = windows_from_events(
            islice(tracer.events, first_event, None), window_cycles)
    return result


def run_trace_file(config: SystemConfig, path: str, mlp: int = 4,
                   warmup_records: int = 0,
                   window_policy: str = "in-order",
                   tracer: Tracer = NULL_TRACER) -> RunResult:
    """Run a trace previously saved with
    :func:`repro.workloads.trace.save_trace` (or captured elsewhere in the
    same format) through any design point."""
    from repro.workloads.trace import load_trace

    records = load_trace(path)
    if warmup_records >= len(records):
        raise ValueError("warm-up must leave a measurement window")
    return _drive(config, records, mlp=mlp, workload_name=path,
                  warmup_records=warmup_records,
                  window_policy=window_policy, tracer=tracer)


def _drive(config: SystemConfig, trace, *, mlp: int, workload_name: str,
           warmup_records: int, window_policy: str,
           tracer: Tracer) -> RunResult:
    """Build the backend and driver for ``config`` and run ``trace``."""
    events = EventQueue()
    backend = build_backend(config, events, tracer=tracer)
    driver = SimulationDriver(config, backend, events, mlp=mlp,
                              workload_name=workload_name,
                              window_policy=window_policy,
                              tracer=tracer)
    # One run allocates millions of short-lived tuples/events; cyclic
    # collection pauses buy nothing mid-run (the object graph is torn
    # down wholesale afterwards) and cost ~15% of wall time, so pause
    # the collector for the duration.  Purely a host-side change: the
    # simulated state machine never observes the collector.
    was_collecting = gc.isenabled()
    if was_collecting:
        gc.disable()
    try:
        return driver.run(trace, warmup_records=warmup_records)
    finally:
        if was_collecting:
            gc.enable()
