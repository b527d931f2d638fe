"""The serving tier's control plane: windowed signals in, decisions out.

One :class:`ServeControlPlane` rides along one
:class:`~repro.serve.scheduler.BatchingScheduler` run.  The scheduler
feeds it public per-event facts (a request was admitted / shed / a
completion finished with some sojourn) and, at every fixed tick-window
boundary, asks it to flush: the plane aggregates each closed window into
a signal, evaluates the attached controllers, and returns the decisions
for the scheduler to apply.  Window boundaries are pure functions of the
tick clock, so an adaptive run re-plans at exactly the same instants on
every replay — the decision log is part of the byte-identical report.

The signal aggregation lives in :meth:`window_signal` specifically so
the obliviousness audit can subclass it: the negative control in
:func:`repro.obs.audit.audit_adaptive_control` overrides it to leak an
address-derived term into the controller and must be caught.

The plane also owns the morphed-mode plant for declassified tenants: a
host-side overlay that mirrors every write, serves a morphed tenant's
reads without touching the ORAM, and remembers the dirty addresses to
replay into the protocol when the tenant reclassifies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.control.admission import AdmissionController
from repro.control.decisions import ControlDecision, window_p99
from repro.control.morph import MODE_MORPHED, MODE_SECURE, MorphController

#: ticks of scheduler time charged per controller evaluation — the
#: control plane's overhead is real work and shows up in utilization
CONTROL_EVAL_TICKS = 1

#: link messages one morphed (non-secure) access costs: the request and
#: the response still cross the encrypted link, nothing else does
PLAIN_LINK_EVENTS = 2


class ServeControlPlane:
    """Windowed controller harness for one scheduler run."""

    def __init__(self, window_ticks: int,
                 admission: Optional[AdmissionController] = None,
                 morph: Optional[MorphController] = None,
                 block_bytes: int = 64):
        if window_ticks < 1:
            raise ValueError("control window must be at least one tick")
        self.window_ticks = window_ticks
        self.admission = admission
        self.morph = morph
        self.block_bytes = block_bytes
        self.decisions: List[ControlDecision] = []
        self.overhead_ticks = 0
        self._next_window = 0
        self._win_sojourns: Dict[int, List[int]] = {}
        self._win_shed: Dict[int, int] = {}
        self._win_tenants: Dict[int, Dict[str, int]] = {}
        # morphed-mode plant: a host-side mirror of the logical store
        self.overlay: Dict[int, bytes] = {}
        self.dirty: Dict[str, Set[int]] = {}

    # -- per-event facts the scheduler reports --------------------------

    def note_admitted(self, request) -> None:
        window = request.arrival // self.window_ticks
        tenants = self._win_tenants.setdefault(window, {})
        tenants[request.tenant] = tenants.get(request.tenant, 0) + 1

    def note_shed(self, request) -> None:
        window = request.arrival // self.window_ticks
        self._win_shed[window] = self._win_shed.get(window, 0) + 1

    def note_completion(self, finish: int, sojourn: int) -> None:
        window = finish // self.window_ticks
        self._win_sojourns.setdefault(window, []).append(sojourn)

    def note_write(self, address: int, data: bytes) -> None:
        """Mirror a write into the overlay (secure or morphed alike)."""
        self.overlay[address] = data

    # -- morphed-mode plant ---------------------------------------------

    def mode(self, tenant: str) -> str:
        if self.morph is None:
            return MODE_SECURE
        return self.morph.mode(tenant)

    def plain_read(self, address: int) -> bytes:
        """A morphed read: overlay value, or zeros like an unwritten
        ORAM block."""
        return self.overlay.get(address, bytes(self.block_bytes))

    def plain_write(self, tenant: str, address: int, data: bytes) -> None:
        self.overlay[address] = data
        self.dirty.setdefault(tenant, set()).add(address)

    def take_dirty(self, tenant: str) -> List[int]:
        """The tenant's dirty addresses, sorted, cleared — the write-back
        list a reclassification must replay into the protocol."""
        return sorted(self.dirty.pop(tenant, ()))

    # -- window machinery -----------------------------------------------

    def window_signal(self, index: int) -> Tuple[Optional[int], int]:
        """Aggregate one closed window into ``(p99, shed)``.

        The audit's negative control overrides this to taint the signal
        with secret-derived data; the base implementation is a pure
        function of public sojourn and shed counts.
        """
        sojourns = self._win_sojourns.pop(index, [])
        shed = self._win_shed.pop(index, 0)
        p99 = window_p99(sojourns) if sojourns else None
        return p99, shed

    def _morph_candidates(self, tenants: Dict[str, int]) -> List[str]:
        """Window tenants plus every currently-morphed tenant: an idle
        morphed tenant must still see low-load windows to revert."""
        candidates = set(tenants)
        if self.morph is not None:
            candidates.update(
                tenant for tenant, mode in self.morph.modes().items()
                if mode == MODE_MORPHED)
        return sorted(candidates)

    def flush_until(self, tick: int, depth: int) -> List[str]:
        """Evaluate every window that closed at or before ``tick``.

        The new decisions join :attr:`decisions`.  Returns the tenants
        that just reclassified (morphed back to secure) — the scheduler
        owes each of those a dirty-address replay into the protocol.
        """
        fresh: List[ControlDecision] = []
        reclassified: List[str] = []
        while (self._next_window + 1) * self.window_ticks <= tick:
            index = self._next_window
            boundary = (index + 1) * self.window_ticks
            tenants = self._win_tenants.pop(index, {})
            if self.admission is not None:
                p99, shed = self.window_signal(index)
                self.overhead_ticks += CONTROL_EVAL_TICKS
                fresh.append(self.admission.plan(index, boundary, p99,
                                                 shed, depth))
            else:
                self._win_sojourns.pop(index, None)
                self._win_shed.pop(index, None)
            if self.morph is not None:
                for tenant in self._morph_candidates(tenants):
                    self.overhead_ticks += CONTROL_EVAL_TICKS
                    decision = self.morph.plan(index, boundary, tenant,
                                               tenants.get(tenant, 0))
                    if decision is None:
                        continue
                    fresh.append(decision)
                    if (decision.applied and
                            decision.after.get("mode") == MODE_SECURE):
                        reclassified.append(tenant)
            self._next_window += 1
        self.decisions.extend(fresh)
        return reclassified

    def flush_final(self, last_tick: int, depth: int) -> List[str]:
        """Close every window with data left after the final completion."""
        pending = [self._next_window]
        for tracker in (self._win_sojourns, self._win_shed,
                        self._win_tenants):
            pending.extend(tracker.keys())
        horizon = (max(max(pending), last_tick // self.window_ticks) + 1) \
            * self.window_ticks
        return self.flush_until(horizon, depth)

    # -- report payload --------------------------------------------------

    def payload(self) -> Dict[str, object]:
        """The report/ledger ``control`` section (canonical-JSON safe)."""
        final: Dict[str, object] = {}
        if self.admission is not None:
            final["batch"] = self.admission.batch_size
            final["limit"] = self.admission.admit_limit
        if self.morph is not None:
            final["modes"] = self.morph.modes()
        return {
            "window_ticks": self.window_ticks,
            "windows": self._next_window,
            "decisions": [decision.to_dict()
                          for decision in self.decisions],
            "applied": sum(1 for decision in self.decisions
                           if decision.applied),
            "overhead_ticks": self.overhead_ticks,
            "final": final,
        }
