"""Runtime morphing between secure and non-secure SDIMM modes.

Section III-A.4: "an SDIMM-based system can easily morph between a
secure and non-secure memory".  The seam already exists — the backends
expose ``submit_plain`` next to ``submit``, the serving control plane a
plain overlay — and this module decides when to use it: a
:class:`MorphController` watches a tenant's sustained
load (a public per-window admitted count) and flips the tenant between
``secure`` and ``morphed`` mode, but only for tenants the operator has
*declassified*.  A tenant that never appears in the declassified set can
never leave secure mode, no matter what the load does — the controller
enforces the policy, the audit enforces that the controller's inputs
stayed public.

Hysteresis (separate high/low watermarks plus a sustain count) makes the
controller immune to single-window spikes and guarantees convergence on
step loads: a constant load is on one side of the watermark band, so
after ``sustain`` windows the mode settles and never flips again.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

from repro.control.decisions import ControlDecision

MODE_SECURE = "secure"
MODE_MORPHED = "morphed"


class MorphController:
    """Hysteretic per-tenant design switch, gated by declassification."""

    def __init__(self, declassified: FrozenSet[str],
                 high_watermark: int = 8, low_watermark: int = 2,
                 sustain: int = 2, name: str = "morph"):
        if low_watermark >= high_watermark:
            raise ValueError("low watermark must sit below high watermark")
        if sustain < 1:
            raise ValueError("sustain must be at least 1 window")
        self.name = name
        self.declassified = frozenset(declassified)
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.sustain = sustain
        self._modes: Dict[str, str] = {}
        self._streaks: Dict[str, int] = {}

    def mode(self, tenant: str) -> str:
        return self._modes.get(tenant, MODE_SECURE)

    def modes(self) -> Dict[str, str]:
        """Current mode of every tenant the controller has seen."""
        return {tenant: self.mode(tenant) for tenant in sorted(self._modes)}

    def plan(self, window: int, tick: int, tenant: str,
             load: int) -> Optional[ControlDecision]:
        """Evaluate one tenant against one window's admitted count.

        Returns a decision only when the mode flips (or a flip was
        earned but blocked by the declassification gate) — steady
        windows leave no record, keeping decision logs proportional to
        actual mode changes.
        """
        mode = self.mode(tenant)
        wants = mode
        if mode == MODE_SECURE and load >= self.high_watermark:
            wants = MODE_MORPHED
        elif mode == MODE_MORPHED and load <= self.low_watermark:
            wants = MODE_SECURE
        if wants == mode:
            self._streaks[tenant] = 0
            return None
        streak = self._streaks.get(tenant, 0) + 1
        self._streaks[tenant] = streak
        if streak < self.sustain:
            return None
        self._streaks[tenant] = 0
        signal = {"tenant": tenant, "load": load, "streak": streak}
        before = {"mode": mode}
        if wants == MODE_MORPHED and tenant not in self.declassified:
            return ControlDecision(
                controller=self.name, window=window, tick=tick,
                signal=signal, before=before, after=dict(before),
                applied=False, reason="not-declassified")
        self._modes[tenant] = wants
        return ControlDecision(
            controller=self.name, window=window, tick=tick, signal=signal,
            before=before, after={"mode": wants}, applied=True,
            reason=f"sustained-{'high' if wants == MODE_MORPHED else 'low'}"
                   "-load")
