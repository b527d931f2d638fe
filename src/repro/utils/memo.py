"""The core selection: which implementation of the hot paths a run uses.

Two independent choices, neither of which moves a simulated cycle:

* ``reference`` (``REPRO_REFERENCE_CORE=1``) selects the straightforward
  *reference* implementations of the hottest simulator functions
  (closure-based event scheduling in :mod:`repro.sim.events`, the
  helper-per-constraint ``schedule_run`` in :mod:`repro.dram.channel`,
  the bank-scanning ``note_activity`` in :mod:`repro.dram.rank`).  The
  reference core is the unbatched, unmemoized spec: it also turns off
  the pure memoization caches (:mod:`repro.dram.address`,
  :mod:`repro.oram.layout`, :mod:`repro.crypto.ctr`,
  :mod:`repro.fastpath`) and the macro-event fast path.
* ``disable_fastpath`` (``REPRO_DISABLE_FASTPATH=1``) turns off the fast
  path alone — the escape hatch for isolating a suspected fastpath bug
  from the optimized event core.

The differential tests (``tests/test_refcore.py``,
``tests/test_fastpath_differential.py``) and the golden masters pin that
every selection is cycle-identical; ``benchmarks/bench_speedup.py``
measures the hot-path speedup by running both cores in subprocesses.

:func:`selection_from_env` is the one place the environment is read.  It
sets :data:`CORE` at import, which is what a fresh process (a CLI verb,
a benchmark subprocess) runs.  Consumers read ``memo.CORE`` at call
time, never by value, so :func:`selected` reaches every one of them at
once.  :func:`repro.parallel.pool.fanout` snapshots the selection into
every task and cache key and runs each task under :func:`selected`,
in-process or in a pool worker, so a result never depends on ``jobs``
or on what a warm worker inherited.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class CoreSelection:
    """Which hot-path implementations run (picklable, hashable)."""

    reference: bool = False
    disable_fastpath: bool = False

    @property
    def memo(self) -> bool:
        """The pure memo caches run on every core but the reference one."""
        return not self.reference

    @property
    def fastpath(self) -> bool:
        """The fast path runs unless disabled or under the reference core."""
        return not (self.reference or self.disable_fastpath)


def selection_from_env() -> CoreSelection:
    """The selection the environment asks for."""
    return CoreSelection(
        reference=os.environ.get("REPRO_REFERENCE_CORE", "") == "1",
        disable_fastpath=os.environ.get("REPRO_DISABLE_FASTPATH", "") == "1")


#: The selection this process runs; consumers read it at call time.
CORE: CoreSelection = selection_from_env()


@contextmanager
def selected(core: CoreSelection) -> Iterator[None]:
    """Run the enclosed block under ``core``, then restore the previous one."""
    global CORE
    previous, CORE = CORE, core
    try:
        yield
    finally:
        CORE = previous


#: Default bound for per-instance memo dictionaries.  Caches clear and
#: restart when full — simpler and faster than LRU bookkeeping, and a
#: full wipe keeps worst-case memory at one bounded dict per instance.
DEFAULT_MEMO_CAP = 1 << 16
