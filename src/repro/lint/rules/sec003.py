"""SEC003 — interprocedural secret flow into branches and loop bounds.

Protocol control flow must not be a function of secret state
(docs/threat_model.md §3).  The taint engine in
:mod:`repro.lint.dataflow` enforces that across function and module
boundaries, so besides a plainly secret local branch SEC003 sees two
things a per-function check cannot:

* a call site whose *argument* is secret flowing into a callee that
  branches on the corresponding parameter — reported at the call site,
  citing the sink's location in the callee ("lifted" findings);
* a local branch whose condition is secret only through interprocedural
  data flow (a helper's return value, a decrypted payload threaded
  through an object attribute).

Taint sources: the secret vocabulary (``leaf``, ``plaintext``,
``secret``), ``# reprolint: secret`` annotations, and ``decrypt*``
return values (the ``crypto/`` session API).  Declassifiers: fresh RNG
draws, ``encrypt*`` results, ``len()``.  Scope: the protocol layers
plus the observability exporters; ``crypto/`` and the
RNG are exempt as *origins* (a sink inside them is constant-time by
their own discipline and separately screened).
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.registry import ProjectRule, register


@register
class InterproceduralSecretFlow(ProjectRule):
    rule_id = "SEC003"
    title = "interprocedural secret-dependent control flow"
    rationale = ("whole-program taint: secret values flowing through "
                 "calls, returns and attributes must not reach branch "
                 "conditions or loop bounds")
    # ``crypto/`` and the RNG are constant-time by their own discipline
    # (and are the taint *sources*); ``faults/`` is the injection
    # harness — its site-selection branches steer test campaigns, not
    # adversary-observable protocol timing.
    path_markers = ("core/", "stash", "obs/")
    exempt_markers = ("crypto/", "utils/rng", "faults/")

    def check_project(self, analysis) -> Iterator[Finding]:
        for flow in analysis.taint.flows:
            if flow.family != "branch":
                continue
            if not self.applies_to(flow.path):
                continue
            if any(marker in flow.origin_path
                   for marker in self.exempt_markers):
                continue
            yield Finding(rule_id=self.rule_id, path=flow.path,
                          line=flow.line, column=flow.column,
                          message=flow.message, severity=self.severity)
