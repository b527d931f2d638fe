"""Cycle-level full-system simulation (the USIMM-equivalent harness).

``repro.sim`` ties the substrates together into the design points of
Figures 6-9: a trace-driven CPU with LLC feeds one of five memory backends
(non-secure, Freecursive, INDEP, SPLIT, INDEP-SPLIT), each built on the
DRAM timing model.  Obliviousness makes ORAM timing content-independent,
so this tier moves no payload bytes — the functional tier in
:mod:`repro.oram` and :mod:`repro.core` proves the protocols correct, and
this tier measures what they cost.
"""
