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
