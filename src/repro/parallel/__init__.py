"""Parallel sweep execution and the persistent run cache.

Public surface:

* :func:`~repro.parallel.pool.fanout` — run independent tasks over
  one warm process pool (or in-process), cache-first, in submission
  order, each under the task's core selection (``docs/performance.md``);
* :class:`~repro.parallel.sweep.SweepPoint` /
  :func:`~repro.parallel.sweep.run_sweep` — simulation points on top of
  :func:`fanout`;
* :class:`~repro.parallel.cache.RunCache` — content-addressed on-disk
  cache keyed on config + workload + seed + trace length + code
  fingerprint;
* :func:`~repro.parallel.fingerprint.code_fingerprint` — the source
  digest that invalidates the cache whenever the simulator changes.
"""

from repro.parallel.cache import (CACHE_DIR_ENV, CachedRun, RunCache,
                                  default_cache_dir)
from repro.parallel.pool import fanout
from repro.parallel.fingerprint import code_fingerprint
from repro.parallel.serialize import (run_result_from_dict,
                                      run_result_to_dict)
from repro.parallel.sweep import (PointResult, SweepOutcome, SweepPoint,
                                  execute_point, run_sweep)

__all__ = [
    "CACHE_DIR_ENV",
    "CachedRun",
    "PointResult",
    "RunCache",
    "SweepOutcome",
    "SweepPoint",
    "code_fingerprint",
    "default_cache_dir",
    "execute_point",
    "fanout",
    "run_result_from_dict",
    "run_result_to_dict",
    "run_sweep",
]
