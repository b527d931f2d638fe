"""Parallel sweep execution and the persistent run cache.

Public surface:

* :func:`~repro.parallel.pool.fanout` — run independent tasks over
  one warm process pool (or in-process), cache-first, in submission
  order, each under the task's core selection (``docs/performance.md``);
* :class:`~repro.parallel.sweep.SweepPoint` /
  :func:`~repro.parallel.sweep.run_sweep` — simulation points on top of
  :func:`~repro.parallel.pool.fanout`;
* :class:`~repro.parallel.cache.RunCache` — content-addressed on-disk
  store of verified JSON payloads; the keys come from
  :func:`~repro.parallel.pool.fanout`, which digests each task's
  canonical request with the code fingerprint and the core selection;
* :func:`~repro.parallel.fingerprint.code_fingerprint` — the source
  digest that invalidates the cache whenever the simulator changes.
"""
