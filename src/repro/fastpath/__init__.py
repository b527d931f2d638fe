"""Macro-event replay core (the fast twin of the event-at-a-time core).

The simulator's reference architecture schedules every DRAM burst and
protocol phase as its own event.  This package recognizes when a whole
ORAM path access will execute purely arithmetically — no rank parked, no
refresh due, state captured by a small signature — and stamps the entire
access in one step: cycles, counters, DRAM/protocol trace events, and
window folds.  Anything else falls through to the existing core, run by
run, mid-access if necessary.

Enablement: on by default; the core selection in :mod:`repro.utils.memo`
turns it off (``REPRO_DISABLE_FASTPATH=1``, or ``REPRO_REFERENCE_CORE=1``,
the differential-test twin).  The differential suites assert
byte-identical results between the two cores; see ``docs/performance.md``.
"""

from repro.fastpath.access import (AccessFastPath, DELTA_TABLE_CAP,
                                   DeltaEntry, delta_table_for,
                                   reset_delta_tables)
from repro.fastpath.engine import emit_batch, pass_eligible, stamp_pass
from repro.fastpath.runs import FastLowPowerRuns, FastTreeRuns, PathPattern

__all__ = [
    "AccessFastPath", "DELTA_TABLE_CAP", "DeltaEntry",
    "FastLowPowerRuns", "FastTreeRuns", "PathPattern", "delta_table_for",
    "emit_batch", "pass_eligible", "reset_delta_tables", "stamp_pass",
]
