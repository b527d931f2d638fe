"""Deterministic fault injection and the resilience machinery it exercises.

The paper's security argument is a *detection* argument: PMMAC and the
Merkle mirror catch tampering and replay.  This package adds the layer a
deployable system needs on top — what happens *after* detection:

* :mod:`repro.faults.plan` — :class:`FaultPlan`, a seeded, serializable
  schedule of faults (bit-flips, replays, stuck cells, link drops/
  duplicates/delays, buffer stalls) that replays byte-identically;
* :mod:`repro.faults.injector` — applies a plan against live protocol
  state through the existing adversarial hooks (``tamper``/``replay``/
  ``snapshot``), healing transient faults so retries can succeed;
* :mod:`repro.faults.recovery` — retry budgets, bounded exponential
  backoff with deterministic jitter, quarantine on exhaustion, and the
  structured failure records that replace tracebacks;
* :mod:`repro.faults.campaign` — seeded end-to-end campaigns over the
  Independent / Split / INDEP-SPLIT protocols, sweepable through
  :mod:`repro.parallel` with results cached by plan digest.
"""
