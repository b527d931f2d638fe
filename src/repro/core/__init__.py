"""The paper's contribution: Secure DIMMs and the distributed ORAM protocols.

* :mod:`repro.core.commands` — the Table I DDR-compatible command encoding.
* :mod:`repro.core.secure_buffer` — the on-DIMM secure buffer (trusted ASIC).
* :mod:`repro.core.independent` — the Independent protocol: one ORAM subtree
  per SDIMM, APPEND broadcast to hide block migration.
* :mod:`repro.core.split` — the Split protocol: every bucket bit-sliced
  across SDIMMs; data moves locally, metadata goes to the CPU.
* :mod:`repro.core.indep_split` — independent partitions of split groups.
* :mod:`repro.core.transfer_queue` — the Independent protocol's inter-SDIMM
  transfer queue with probabilistic draining (Section IV-C).
* :mod:`repro.core.lowpower` — rank power management for the Section III-E
  one-subtree-per-rank layout.
"""
