"""One process fan-out for every independent-task site in the tree.

Every paper figure point, serve and shard point and fault campaign is an
independent, deterministic task.  :func:`fanout` runs a list
of them and returns the results in submission order:

* **cache-first** — given a :class:`~repro.parallel.cache.RunCache` and a
  ``key`` function, each task's entry is looked up before any work is
  spawned, and every fresh result is written back.  ``key(task)``
  returns only the task's canonical request (a JSON-friendly dict);
  :func:`fanout` is the one place that turns it into a cache key, by
  digesting it together with the code fingerprint and the core
  selection;
* **one warm pool per ``jobs``** — a ``ProcessPoolExecutor`` kept alive
  across calls (torn down at interpreter exit).  Its ``map`` keeps
  submission order, so completion order never reaches a result; a worker
  that dies raises ``BrokenProcessPool`` instead of hanging, and any
  failure discards the pool so the next call starts from fresh workers.
  Results are cached as they arrive in submission order, so every task
  ahead of a failed one keeps its cache entry;
* **the same worker in-process** when ``jobs <= 1``, when at most one
  task needs running, or when no pool can be made;
* **one core selection** — the :class:`~repro.utils.memo.CoreSelection`
  the environment asks for at call time rides in every task and every
  cache key, and each task runs under it, in-process or in a pool, so a
  result never depends on ``jobs`` or on what a warm worker inherited;
* **uniform host metadata** — ``{"wall_ms", "from_cache"}`` per task,
  timed only through :func:`repro.obs.ledger.host_clock_s`.  It rides
  next to the result, never inside it, so result bytes stay identical
  across ``jobs`` values and cached replays.

Workers are module-level functions of one picklable argument.  With a
cache, they must return a JSON-friendly dict, which is stored as-is.
Every ``fanout`` worker is checked by reprolint's DET003: it may not
mutate module globals, or read ones other code mutates.
"""

from __future__ import annotations

import atexit
import dataclasses
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple, cast)

from repro.obs.ledger import host_clock_s
from repro.parallel.cache import RunCache
from repro.parallel.fingerprint import code_fingerprint
from repro.utils import memo
from repro.utils.canonical import canonical_digest

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

#: One task's result and its host metadata ``{"wall_ms", "from_cache"}``.
Outcome = Tuple[Any, Dict[str, object]]

#: Live pools keyed by worker count.  Keeping workers alive amortizes
#: process start-up and keeps worker-side memo caches warm; a warm worker
#: re-derives every result from the pickled task under the task's own
#: core selection, so it returns exactly what a cold one would.
_POOLS: Dict[int, ProcessPoolExecutor] = {}


def _pool(jobs: int) -> Optional[ProcessPoolExecutor]:
    """The warm pool for ``jobs`` workers, or ``None`` if none can be made."""
    pool = _POOLS.get(jobs)
    if pool is None:
        # imported on first use: it loads multiprocessing, which a
        # process that never fans out should not pay for in memory
        import concurrent.futures

        try:
            pool = concurrent.futures.ProcessPoolExecutor(max_workers=jobs)
        except (ImportError, NotImplementedError, OSError, ValueError):
            return None
        _POOLS[jobs] = pool
    return pool


def discard_pool(jobs: int) -> None:
    """Shut down and forget the pool for ``jobs`` (error recovery)."""
    pool = _POOLS.pop(jobs, None)
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)


@atexit.register
def shutdown_pools() -> None:
    """Shut down every warm pool (atexit hook; also used by tests)."""
    for jobs in list(_POOLS):
        discard_pool(jobs)


def _run(job: Tuple[Callable[[Any], Any], memo.CoreSelection, Any]
         ) -> Tuple[Any, float]:
    """Run one task under its core selection; the same code in and out
    of a pool, which is the determinism argument in one line."""
    worker, core, task = job
    with memo.selected(core):
        started = host_clock_s()
        value = worker(task)
        return value, (host_clock_s() - started) * 1000.0


def fanout(tasks: Sequence[Any], worker: Callable[[Any], Any], *,
           jobs: int, cache: Optional[RunCache] = None,
           key: Optional[Callable[[Any], object]] = None) -> List[Outcome]:
    """Run ``worker`` over ``tasks``; outcomes come back in submission order.

    Results are cached only when both ``cache`` and ``key`` are given;
    an entry's key is the digest of ``key(task)``, the code fingerprint
    and the core selection, so a change to any of them is a miss.
    A worker exception (or a dead worker's ``BrokenProcessPool``)
    propagates after the pool is discarded; every task ahead of the
    failed one in submission order is already cached.
    """
    tasks = list(tasks)
    core = memo.selection_from_env()
    outcomes: List[Optional[Outcome]] = [None] * len(tasks)
    keys: List[Optional[str]] = [None] * len(tasks)
    pending: List[int] = []
    for index, task in enumerate(tasks):
        if cache is not None and key is not None:
            keys[index] = entry_key = canonical_digest(
                {"request": key(task), "fingerprint": code_fingerprint(),
                 "core": dataclasses.asdict(core)}, enums=True)
            cached = cache.get_json(entry_key)
            if cached is not None:
                outcomes[index] = (cached, {"wall_ms": 0.0,
                                            "from_cache": True})
                continue
        pending.append(index)

    jobs_list = [(worker, core, tasks[index]) for index in pending]
    pool = _pool(jobs) if jobs > 1 and len(pending) > 1 else None
    try:
        # Both maps are lazy and keep submission order, so each result is
        # cached as it arrives and a later failure loses none of them.
        results = map(_run, jobs_list) if pool is None else \
            pool.map(_run, jobs_list)
        for index, (value, wall_ms) in zip(pending, results):
            outcomes[index] = (value, {"wall_ms": wall_ms,
                                       "from_cache": False})
            entry_key = keys[index]
            if cache is not None and entry_key is not None:
                cache.put_json(entry_key, value)
    except BaseException:
        if pool is not None:
            discard_pool(jobs)
        raise
    return cast(List[Outcome], outcomes)
