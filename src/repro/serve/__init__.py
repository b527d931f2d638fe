"""repro.serve — the open-loop request-serving layer (docs/serving.md).

Load generation (:mod:`~repro.serve.loadgen`), the bounded batching
scheduler with backpressure (:mod:`~repro.serve.scheduler`), SLO
reporting against the Section IV-C queueing model
(:mod:`~repro.serve.slo`), and cached parallel rate sweeps
(:mod:`~repro.serve.bench`) behind ``python -m repro serve-bench``.  One
:class:`ServeSpec` describes every point: ``shards == 1`` is the single
server, ``shards > 1`` the multi-process tier over leaf-MSB partitions
(:mod:`~repro.serve.shard` routing and per-shard workers,
:mod:`~repro.serve.router` fan-out and aggregate folding).
"""

from repro.serve.bench import (
    DEFAULT_SLO_P99,
    DEFAULT_WINDOW_TICKS,
    ServeSpec,
    build_serving_protocol,
    generate_requests,
    run_serve,
    run_serve_sweep,
    serve_cache_key,
    serve_requests,
)
from repro.serve.loadgen import (
    Request,
    TenantSpec,
    generate_stream,
    merge_streams,
    offered_load,
    tenant_from_profile,
)
from repro.serve.scheduler import (
    AdmissionRejected,
    BatchingScheduler,
    Completion,
    SchedulerOutcome,
)
from repro.serve.router import fold_shard_reports
from repro.serve.shard import (
    ShardPlan,
    build_plan,
    model_migrations,
    route_requests,
    run_shard,
)
from repro.serve.slo import (
    REPORT_SCHEMA,
    SHARD_SCHEMA,
    build_report,
    canonical_json,
    compare_with_model,
    render_table,
)

__all__ = [
    "AdmissionRejected",
    "BatchingScheduler",
    "Completion",
    "DEFAULT_SLO_P99",
    "DEFAULT_WINDOW_TICKS",
    "REPORT_SCHEMA",
    "Request",
    "SHARD_SCHEMA",
    "SchedulerOutcome",
    "ServeSpec",
    "ShardPlan",
    "TenantSpec",
    "build_plan",
    "build_report",
    "build_serving_protocol",
    "canonical_json",
    "compare_with_model",
    "fold_shard_reports",
    "generate_requests",
    "generate_stream",
    "merge_streams",
    "model_migrations",
    "offered_load",
    "route_requests",
    "run_serve",
    "run_serve_sweep",
    "run_shard",
    "serve_cache_key",
    "serve_requests",
    "tenant_from_profile",
]
