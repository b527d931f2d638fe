"""Feedback control of the transfer queue's drain probability *p*.

Section IV-C fixes the open-loop math: draining with probability *p*
gives utilization rho = lambda / (lambda + p), and M/M/1/K overflow
probability ``mm1k_full_probability(rho, K)``.  The controller inverts
that chain.  Given an overflow *budget* epsilon it solves for the
largest utilization the budget admits (:func:`target_utilization`),
measures the actual per-access arrival fraction over a cycle window,
and re-plans

    p* = lambda_hat * (1 - rho*) / rho*

(:func:`setpoint_probability`, the inverse of
:func:`repro.analysis.queueing.drain_utilization`).  Because the model
is exact for the plant we simulate, one application per load level
reaches the set-point; a deadband absorbs measurement jitter so the
controller provably cannot oscillate on constant input.

Inputs are restricted to public aggregate counts
(:meth:`TransferQueue.counters_dict`): arrivals and offered accesses per
window, never an address or payload.
"""

from __future__ import annotations

from repro.analysis.queueing import mm1k_full_probability
from repro.control.decisions import ControlDecision


def setpoint_probability(target_rho: float,
                         arrival_rate: float = 0.25) -> float:
    """The drain probability that hits ``target_rho``: the inverse of
    ``drain_utilization``, clamped into the valid lottery range [0, 1].
    """
    if not 0.0 < target_rho <= 1.0:
        raise ValueError("target utilization must be in (0, 1]")
    if arrival_rate < 0:
        raise ValueError("arrival rate must be non-negative")
    return min(1.0, max(0.0, arrival_rate * (1.0 - target_rho) / target_rho))


def target_utilization(capacity: int, overflow_budget: float,
                       tolerance: float = 1e-9) -> float:
    """Largest rho with M/M/1/K overflow probability <= the budget.

    ``mm1k_full_probability`` is monotone increasing in rho, so a plain
    bisection over [0, 1] converges; running the queue at the largest
    admissible rho spends the fewest dummy drain accesses that still
    meet the budget.
    """
    if capacity < 1:
        raise ValueError("capacity must be at least 1")
    if not 0.0 < overflow_budget < 1.0:
        raise ValueError("overflow budget must be in (0, 1)")
    if mm1k_full_probability(1.0, capacity) <= overflow_budget:
        return 1.0
    low, high = 0.0, 1.0
    while high - low > tolerance:
        mid = (low + high) / 2.0
        if mm1k_full_probability(mid, capacity) <= overflow_budget:
            low = mid
        else:
            high = mid
    return low


class DrainController:
    """Re-plans a transfer queue's *p* at cycle-window boundaries.

    The controller is pure: :meth:`plan` maps public window counts to a
    :class:`ControlDecision`, and the caller applies
    ``queue.set_drain_probability(decision.after["p"])`` when
    ``decision.applied`` — the setter's own validation is the hard
    p-in-[0,1] backstop behind the clamp here.
    """

    def __init__(self, capacity: int, initial_probability: float,
                 overflow_budget: float = 1e-6, deadband: float = 0.02,
                 name: str = "drain"):
        if not 0.0 <= initial_probability <= 1.0:
            raise ValueError("drain probability must be in [0, 1]")
        if deadband < 0:
            raise ValueError("deadband must be non-negative")
        self.name = name
        self.capacity = capacity
        self.overflow_budget = overflow_budget
        self.deadband = deadband
        self.target_rho = target_utilization(capacity, overflow_budget)
        self.probability = initial_probability
        self._last_arrivals = 0
        self._last_offered = 0

    def plan(self, window: int, tick: int, arrivals: int,
             offered: int) -> ControlDecision:
        """One evaluation: cumulative public counts in, decision out.

        ``arrivals`` is the queue's cumulative arrival count and
        ``offered`` the cumulative accesses that could have produced an
        arrival; their per-window deltas estimate the arrival fraction
        lambda_hat that the set-point inversion needs.
        """
        arrived = arrivals - self._last_arrivals
        seen = offered - self._last_offered
        self._last_arrivals = arrivals
        self._last_offered = offered
        before = {"p": self.probability}
        signal = {"arrivals": arrived, "offered": seen}
        if seen <= 0:
            return ControlDecision(
                controller=self.name, window=window, tick=tick,
                signal=signal, before=before, after=dict(before),
                applied=False, reason="no-traffic")
        lambda_hat = arrived / seen
        signal["lambda"] = lambda_hat
        planned = (0.0 if lambda_hat == 0.0 else
                   setpoint_probability(self.target_rho, lambda_hat))
        if abs(planned - self.probability) <= self.deadband:
            return ControlDecision(
                controller=self.name, window=window, tick=tick,
                signal=signal, before=before,
                after=dict(before), applied=False, reason="within-deadband")
        self.probability = planned
        return ControlDecision(
            controller=self.name, window=window, tick=tick, signal=signal,
            before=before, after={"p": planned}, applied=True,
            reason="setpoint")