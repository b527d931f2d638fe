"""Path ORAM and Freecursive ORAM (the paper's baseline and substrate).

Two tiers share the same geometry and layout code:

* the *functional* tier (:class:`PathOram`, :class:`RecursiveOram`,
  :class:`FreecursiveOram`) stores real blocks, runs real encryption and
  PMMAC integrity, and is used to prove correctness and obliviousness;
* the *timing* tier (in :mod:`repro.sim` and :mod:`repro.core`) reuses the
  geometry, layout, and PLB models to drive the DRAM simulator without
  payload bytes — Path ORAM's obliviousness makes its timing
  content-independent, which is what makes this split sound.
"""
