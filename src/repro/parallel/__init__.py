"""Parallel sweep execution and the persistent run cache.

Public surface:

* :func:`~repro.parallel.pool.fanout` — run independent tasks over
  one warm process pool (or in-process), cache-first, in submission
  order, each under the task's core selection (``docs/performance.md``);
* :class:`~repro.parallel.sweep.SweepPoint` /
  :func:`~repro.parallel.sweep.run_sweep` — simulation points on top of
  :func:`~repro.parallel.pool.fanout`;
* :class:`~repro.parallel.cache.RunCache` — content-addressed on-disk
  cache keyed on config + workload + seed + trace length + code
  fingerprint;
* :func:`~repro.parallel.fingerprint.code_fingerprint` — the source
  digest that invalidates the cache whenever the simulator changes.
"""
