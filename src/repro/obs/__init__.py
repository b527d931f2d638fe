"""repro.obs — tracing, metrics, time series, the ledger, and the audit.

Layered on the rest of the stack without touching its defaults: every
instrumented component accepts a :class:`~repro.obs.tracer.Tracer` and
defaults to :data:`~repro.obs.tracer.NULL_TRACER`, whose methods are
no-ops (see ``docs/observability.md``).  The performance-observability
layer — :mod:`~repro.obs.ledger` (append-only run records),
:mod:`~repro.obs.timeseries` (tumbling cycle windows), and
:mod:`~repro.obs.profile` (hotspot attribution) — rides on the same
events.
"""

from repro.obs.audit import (AuditResult, LeakyLink, adversary_observations,
                             audit_adaptive_control,
                             audit_address_streams,
                             audit_freecursive_protocol,
                             audit_indep_split_protocol,
                             audit_independent_protocol,
                             audit_split_protocol, audit_timing_design,
                             compare_observables, run_full_audit,
                             scan_secret_args)
from repro.obs.chrome import (chrome_trace_events, render_chrome_trace,
                              write_chrome_trace)
from repro.obs.ledger import (LEDGER_SCHEMA, Ledger, canonical_core_line,
                              host_clock_s, host_provenance, make_record,
                              resolve_ledger, simulation_core, verify_record)
from repro.obs.metrics import (IDLE_PHASE, PHASE_PRIORITY, Counter, Gauge,
                               Histogram, MetricsRegistry, fold_metrics_dict,
                               phase_breakdown, summarize_phase_breakdown)
from repro.obs.profile import (WallClockSampler, diff_hotspots,
                               exclusive_cycles, hotspots, render_hotspot_diff,
                               render_hotspots)
from repro.obs.timeseries import (WINDOW_SCHEMA, WindowedTracer,
                                  WindowSnapshot, fold_windows,
                                  windows_from_events, windows_to_dicts)
from repro.obs.tracer import (CATEGORY_BUS, CATEGORY_CPU, CATEGORY_DRAM,
                              CATEGORY_LINK, CATEGORY_PROTOCOL,
                              CATEGORY_STASH, NULL_TRACER, CollectingTracer,
                              StepClock, TraceEvent, Tracer, merge_events)

__all__ = [
    "AuditResult", "LeakyLink", "adversary_observations",
    "audit_adaptive_control", "audit_address_streams",
    "audit_freecursive_protocol",
    "audit_indep_split_protocol", "audit_independent_protocol",
    "audit_split_protocol", "audit_timing_design", "compare_observables",
    "run_full_audit", "scan_secret_args",
    "chrome_trace_events", "render_chrome_trace", "write_chrome_trace",
    "LEDGER_SCHEMA", "Ledger", "canonical_core_line", "host_clock_s",
    "host_provenance", "make_record", "resolve_ledger", "simulation_core",
    "verify_record",
    "IDLE_PHASE", "PHASE_PRIORITY", "Counter", "Gauge", "Histogram",
    "MetricsRegistry", "fold_metrics_dict", "phase_breakdown",
    "summarize_phase_breakdown",
    "WallClockSampler", "diff_hotspots", "exclusive_cycles", "hotspots",
    "render_hotspot_diff", "render_hotspots",
    "WINDOW_SCHEMA", "WindowedTracer", "WindowSnapshot", "fold_windows",
    "windows_from_events", "windows_to_dicts",
    "CATEGORY_BUS", "CATEGORY_CPU", "CATEGORY_DRAM", "CATEGORY_LINK",
    "CATEGORY_PROTOCOL", "CATEGORY_STASH", "NULL_TRACER",
    "CollectingTracer", "StepClock", "TraceEvent", "Tracer", "merge_events",
]
