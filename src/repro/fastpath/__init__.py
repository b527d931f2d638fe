"""Macro-event replay core (the fast twin of the event-at-a-time core).

The simulator's reference architecture schedules every DRAM burst and
protocol phase as its own event.  This package recognizes when a whole
ORAM path access will execute purely arithmetically — no touched rank
parked — and stamps the entire access in one step: cycles, counters,
DRAM/protocol trace events, and window folds.  Anything else falls
through to the existing core, run by run.
:func:`~repro.fastpath.engine.stamp_pass` is also the constraint chain
behind ``Channel.schedule_run`` and ``Channel.schedule_access``.

Enablement: on by default; the core selection in :mod:`repro.utils.memo`
turns it off (``REPRO_DISABLE_FASTPATH=1``, or ``REPRO_REFERENCE_CORE=1``,
the differential-test twin).  The differential suites assert
byte-identical results between the two cores; see ``docs/performance.md``.
"""
