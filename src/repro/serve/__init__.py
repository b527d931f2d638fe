"""repro.serve — the open-loop request-serving layer (docs/serving.md).

Load generation (:mod:`~repro.serve.loadgen`), the bounded batching
scheduler with backpressure (:mod:`~repro.serve.scheduler`), SLO
reporting against the Section IV-C queueing model
(:mod:`~repro.serve.slo`), and cached parallel rate sweeps
(:mod:`~repro.serve.bench`) behind ``python -m repro serve-bench``.  One
:class:`~repro.serve.bench.ServeSpec` describes every point:
``shards == 1`` is the single server, ``shards > 1`` the multi-process
tier over leaf-MSB partitions
(:mod:`~repro.serve.shard` routing and per-shard workers,
:mod:`~repro.serve.router` fan-out and aggregate folding).
"""
