"""Synthetic memory-trace generation (the Simics/SPEC 2006 substitute).

The paper drives USIMM with L1-miss traces of ten SPEC 2006 benchmarks
captured in Simics.  Those traces are not redistributable, so this package
generates synthetic L1-miss streams from parametric profiles that preserve
the properties the evaluation depends on: footprint (LLC hit rate),
spatial/temporal locality, write fraction, memory-level parallelism, and
inter-miss gaps.  :mod:`repro.workloads.spec` defines ten named profiles
with MLP/locality settings matching the paper's narrative (gromacs and
omnetpp are high-MLP and favour INDEP; GemsFDTD is latency-bound and
favours SPLIT).
"""
