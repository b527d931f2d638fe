"""Structured records of every control-plane action.

A :class:`ControlDecision` is the unit the adaptive control plane is
audited in: one record per controller evaluation that changed (or
deliberately declined to change) a knob, carrying the public signal it
acted on and the before/after state.  Decisions ride on serving reports
and inside the digest-protected ledger core, so a re-run that decides
differently is a byte-level diff — replay stability of the decision log
is part of the determinism contract.

Decisions are pure data: controllers *return* them and the plant (the
scheduler, the migration model) applies them.  Nothing in a decision may
derive from an address, a payload, or any other secret — the audit
(:func:`repro.obs.audit.audit_adaptive_control`) compares decision logs
across distinct address streams to enforce exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Union

Scalar = Union[int, float, str]


@dataclass(frozen=True)
class ControlDecision:
    """One controller evaluation at a window boundary.

    ``signal`` is the public measurement the controller saw; ``before``
    and ``after`` are the knob values around the evaluation.  When
    ``applied`` is False the knobs were left alone and ``reason`` says
    why (deadband, clamp, not-declassified, ...).
    """

    controller: str
    window: int
    tick: int
    signal: Dict[str, Scalar] = field(default_factory=dict)
    before: Dict[str, Scalar] = field(default_factory=dict)
    after: Dict[str, Scalar] = field(default_factory=dict)
    applied: bool = False
    reason: str = ""

    def to_dict(self) -> Dict[str, object]:
        """Canonical payload (stable key order via canonical_json)."""
        return {
            "controller": self.controller,
            "window": self.window,
            "tick": self.tick,
            "signal": dict(self.signal),
            "before": dict(self.before),
            "after": dict(self.after),
            "applied": self.applied,
            "reason": self.reason,
        }


def decisions_payload(decisions: List[ControlDecision]) -> List[Dict]:
    return [decision.to_dict() for decision in decisions]


def window_p99(sojourns: List[int]) -> int:
    """Nearest-rank p99 of one window's sojourns (deterministic, exact).

    Windows are small (bounded by the requests a window can finish), so
    an exact sort beats a reservoir here and keeps the controller's
    input a pure function of the window's completions.
    """
    if not sojourns:
        raise ValueError("p99 of an empty window is undefined")
    ordered = sorted(sojourns)
    rank = max(1, -(-99 * len(ordered) // 100))  # ceil without floats
    return ordered[rank - 1]
