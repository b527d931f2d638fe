"""Macro-event replay core (the fast twin of the event-at-a-time core).

The simulator's reference architecture schedules every DRAM burst and
protocol phase as its own event.  This package recognizes when a whole
ORAM path access will execute purely arithmetically — no touched rank
parked — and stamps the entire access in one step: cycles, counters,
DRAM/protocol trace events, and window folds.  :mod:`.runs` produces a
path's row segments; :mod:`.access` picks, once per path pass, between
stamping them with :func:`repro.dram.stamp.stamp_pass` and walking the
layout's runs through ``Channel.schedule_run``.

Enablement: on by default; ``REPRO_REFERENCE_CORE=1`` (the core
selection in :mod:`repro.utils.memo`) walks every pass.  The
differential suites assert byte-identical results between the two
cores; see ``docs/performance.md``.
"""
