"""One process fan-out for every independent-task site in the tree.

Every paper figure point, serve and shard point, fault campaign and lint
file is an independent, deterministic task.  :func:`fanout` runs a list
of them and returns the results in submission order:

* **cache-first** — given a :class:`~repro.parallel.cache.RunCache` and a
  ``key`` function, each task's entry is looked up before any work is
  spawned, and every fresh result is written back;
* **one warm pool per ``jobs``** — a ``ProcessPoolExecutor`` kept alive
  across calls (torn down at interpreter exit).  Its ``map`` keeps
  submission order, so completion order never reaches a result; a worker
  that dies raises ``BrokenProcessPool`` instead of hanging, and any
  failure discards the pool so the next call starts from fresh workers;
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
"""

from __future__ import annotations

import atexit
import hashlib
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple, cast)

from repro.obs.ledger import host_clock_s
from repro.parallel.cache import RunCache
from repro.utils import memo

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


def _core_key(key: str, core: memo.CoreSelection) -> str:
    """A cache key that also names the core the entry was computed on."""
    return hashlib.sha256(f"{key}|{core!r}".encode()).hexdigest()


def fanout(tasks: Sequence[Any], worker: Callable[[Any], Any], *,
           jobs: int, cache: Optional[RunCache] = None,
           key: Optional[Callable[[Any], str]] = None) -> List[Outcome]:
    """Run ``worker`` over ``tasks``; outcomes come back in submission order.

    Results are cached only when both ``cache`` and ``key`` are given.
    A worker exception (or a dead worker's ``BrokenProcessPool``)
    propagates after the pool is discarded.
    """
    tasks = list(tasks)
    core = memo.selection_from_env()
    outcomes: List[Optional[Outcome]] = [None] * len(tasks)
    keys: List[Optional[str]] = [None] * len(tasks)
    pending: List[int] = []
    for index, task in enumerate(tasks):
        if cache is not None and key is not None:
            keys[index] = entry_key = _core_key(key(task), core)
            cached = cache.get_json(entry_key)
            if cached is not None:
                outcomes[index] = (cached, {"wall_ms": 0.0,
                                            "from_cache": True})
                continue
        pending.append(index)

    jobs_list = [(worker, core, tasks[index]) for index in pending]
    pool = _pool(jobs) if jobs > 1 and len(pending) > 1 else None
    if pool is None:
        results = [_run(job) for job in jobs_list]
    else:
        try:
            results = list(pool.map(_run, jobs_list))
        except BaseException:
            discard_pool(jobs)
            raise

    for index, (value, wall_ms) in zip(pending, results):
        outcomes[index] = (value, {"wall_ms": wall_ms, "from_cache": False})
        entry_key = keys[index]
        if cache is not None and entry_key is not None:
            cache.put_json(entry_key, value)
    return cast(List[Outcome], outcomes)
