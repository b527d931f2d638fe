"""Shared machinery for the reproduction benchmarks.

Every figure/table of the paper has one bench module.  They share:

* ``run_cached`` — one simulation point run through
  :func:`repro.parallel.sweep.run_sweep`, so it shares the run cache,
  its key and its entry format with ``repro sweep``/``compare``: a point
  either of them computed is a hit for the other.  An in-process dict on
  top keeps Figure 6's Freecursive runs for Figures 8-10 within one
  pytest run.  The cache key includes the ``repro`` source fingerprint,
  so any code change invalidates every entry (stale ones are pruned on
  first use);
* environment knobs —

  - ``REPRO_TRACE_LENGTH`` (default 4000): records per trace.  The paper
    uses 1M warm-up + 1M measured; raise this for higher fidelity at
    proportional runtime (pure-Python simulator).
  - ``REPRO_WORKLOADS`` (default: all ten): comma-separated subset.
  - ``REPRO_CACHE_DIR``: disk-cache location (default
    ``benchmarks/results/.runcache``); ``REPRO_NO_DISK_CACHE=1``
    disables the disk layer entirely.

* ``emit`` — prints through pytest's capture so the regenerated tables
  always land in the console / tee'd log.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Optional, Tuple

from repro.config import DesignPoint
from repro.parallel.cache import RunCache
from repro.parallel.sweep import SweepPoint, run_sweep
from repro.sim.stats import RunResult, geometric_mean
from repro.workloads.spec import profile_names

TRACE_LENGTH = int(os.environ.get("REPRO_TRACE_LENGTH", "4000"))

_workload_env = os.environ.get("REPRO_WORKLOADS", "")
WORKLOADS: Tuple[str, ...] = (tuple(name for name in _workload_env.split(",")
                                    if name)
                              or profile_names())

_RUN_CACHE: Dict[tuple, RunResult] = {}

_DISK_CACHE: Optional[RunCache] = None
_DISK_CACHE_READY = False


def disk_cache() -> Optional[RunCache]:
    """The shared persistent cache (pruned of stale entries on first use)."""
    global _DISK_CACHE, _DISK_CACHE_READY
    if _DISK_CACHE_READY:
        return _DISK_CACHE
    _DISK_CACHE_READY = True
    if os.environ.get("REPRO_NO_DISK_CACHE") == "1":
        return None
    directory = os.environ.get("REPRO_CACHE_DIR") or os.path.join(
        os.path.dirname(__file__), "results", ".runcache")
    _DISK_CACHE = RunCache(directory)
    # explicit invalidation: entries from older code are unreachable
    # anyway (the fingerprint is in the key) — reclaim them now
    _DISK_CACHE.prune_stale()
    return _DISK_CACHE

#: Reproduction tables accumulate here; the benchmarks/conftest.py
#: terminal-summary hook prints them after the pytest-benchmark table
#: (terminal summary is never captured) and writes them to
#: benchmarks/results/reproduction_tables.txt.
EMITTED_LINES = []


def emit(text: str = "") -> None:
    """Record one line of a regenerated paper table."""
    EMITTED_LINES.append(text)
    print(text)


def run_cached(design: DesignPoint, workload: str, channels: int = 1,
               oram_cache_enabled: bool = True) -> RunResult:
    """Run (or fetch) one simulation from the shared benchmark cache.

    Lookup order: in-process dict, then the persistent disk cache, then a
    real simulation (whose result is written back to both layers).  When
    ``REPRO_LEDGER`` is set, every disk-cache miss *and* hit appends one
    ``bench`` ledger record (hits with ``from_cache: true``) — the
    in-process layer stays silent, it is a per-pytest-session memo.
    """
    from repro.obs.ledger import resolve_ledger

    key = (design, workload, channels, oram_cache_enabled, TRACE_LENGTH)
    cached = _RUN_CACHE.get(key)
    if cached is not None:
        return cached
    point = SweepPoint(design, workload, channels=channels,
                       trace_length=TRACE_LENGTH,
                       oram_cache_enabled=oram_cache_enabled)
    outcome = run_sweep([point], cache=disk_cache())
    outcome.append_ledger(resolve_ledger(), "bench")
    result = _RUN_CACHE[key] = outcome.results[0].result
    return result


def normalized_row(workload: str, baseline: RunResult,
                   results: Iterable[RunResult]) -> str:
    cells = " ".join(f"{result.normalized_time(baseline):6.3f}"
                     for result in results)
    return f"  {workload:12s} {cells}"


def print_header(title: str, columns: Iterable[str]) -> None:
    emit("")
    emit("=" * 72)
    emit(title)
    emit("=" * 72)
    emit("  " + "workload".ljust(12) + " " +
         " ".join(f"{column:>6s}" for column in columns))


def summarize(name: str, values) -> float:
    mean = geometric_mean(list(values))
    emit(f"  {'geomean':12s} {mean:6.3f}   ({name})")
    return mean
