"""The core selection: which implementation of the hot paths a run uses.

One choice, which never moves a simulated cycle: ``reference``
(``REPRO_REFERENCE_CORE=1``) selects the straightforward *reference*
implementations of the hottest simulator functions (closure-based event
scheduling in :mod:`repro.sim.events`, the helper-per-constraint
``_schedule_run_reference`` behind both ``schedule_run`` and
``schedule_access`` in :mod:`repro.dram.channel`, the bank-scanning
``note_activity`` in :mod:`repro.dram.rank`).  The reference core is the
unbatched, unmemoized spec: it also turns off the one memo, the counter-
mode cipher's last pad per nonce (:mod:`repro.crypto.ctr`), and every
path pass walks the layout's runs instead of stamping
(:mod:`repro.fastpath.access`).

The differential tests (``tests/test_refcore.py``,
``tests/test_fastpath_differential.py``) and the golden masters pin that
both selections are cycle-identical; ``benchmarks/bench_fastpath.py``
checks the same and measures the speedup by running both cores in
subprocesses.

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


def selection_from_env() -> CoreSelection:
    """The selection the environment asks for."""
    return CoreSelection(
        reference=os.environ.get("REPRO_REFERENCE_CORE", "") == "1")


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
