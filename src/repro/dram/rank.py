"""Rank model: banks, ACT pacing (tRRD/tFAW), refresh, and power states.

The rank is the granularity of the paper's low-power technique: the SDIMM
lays one ORAM subtree out per rank and keeps every rank except the active
one in power-down, paying a short exit latency that hides under the long
``accessORAM`` operation.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List

from repro.dram.bank import Bank, ScaledTiming
from repro.dram.commands import PARKED, PowerState
from repro.utils import memo

#: States note_activity leaves untouched (the low-power manager owns them).


class Rank:
    """One rank: a set of banks plus rank-global constraints and state."""

    __slots__ = ("_t", "banks", "_act_history", "_last_act_time",
                 "refresh_enabled", "_next_refresh_due", "power_state",
                 "_state_since", "state_residency", "refresh_count",
                 "power_down_exits")

    def __init__(self, timing: ScaledTiming, banks_per_rank: int,
                 refresh_enabled: bool = False):
        self._t = timing
        self.banks: List[Bank] = [Bank(timing) for _ in range(banks_per_rank)]
        self._act_history: deque = deque(maxlen=4)
        self._last_act_time = -(10 ** 9)
        self.refresh_enabled = refresh_enabled
        self._next_refresh_due = timing.trefi
        self.power_state = PowerState.PRECHARGE_STANDBY
        self._state_since = 0
        self.state_residency: Dict[PowerState, int] = {
            state: 0 for state in PowerState}
        self.refresh_count = 0
        self.power_down_exits = 0

    # ------------------------------------------------------------------
    # ACT pacing
    # ------------------------------------------------------------------

    def earliest_activate(self, candidate: int) -> int:
        """Earliest time >= ``candidate`` an ACT may issue on this rank."""
        earliest = max(candidate, self._last_act_time + self._t.trrd)
        if len(self._act_history) == self._act_history.maxlen:
            earliest = max(earliest, self._act_history[0] + self._t.tfaw)
        return earliest

    def record_activate(self, issue_time: int) -> None:
        self._act_history.append(issue_time)
        self._last_act_time = issue_time

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------

    def maybe_refresh(self, now: int) -> int:
        """Perform any due refreshes; return the post-refresh ready time.

        Lazy model: a refresh that fell due within the last tREFI blocks
        the incoming access for tRFC (it is executing "now"); older missed
        refreshes ran in the background while the rank sat idle and only
        count toward statistics.  Under saturation accesses arrive densely,
        so effectively every refresh steals tRFC of channel time — the
        behaviour a cycle-accurate scheduler shows.  With refresh disabled
        this is a no-op returning ``now``.
        """
        if not self.refresh_enabled:
            return now
        horizon = now - self._t.trefi
        if self._next_refresh_due < horizon:
            missed = (horizon - self._next_refresh_due) // self._t.trefi + 1
            self.refresh_count += missed
            self._next_refresh_due += missed * self._t.trefi
        ready = now
        while self._next_refresh_due <= ready:
            self._next_refresh_due += self._t.trefi
            ready += self._t.trfc
            self.refresh_count += 1
        if ready != now:
            for bank in self.banks:
                bank.block_until(ready)
        return ready

    # ------------------------------------------------------------------
    # Power states
    # ------------------------------------------------------------------

    def _transition(self, new_state: PowerState, now: int) -> None:
        elapsed = max(0, now - self._state_since)
        self.state_residency[self.power_state] += elapsed
        self.power_state = new_state
        self._state_since = max(now, self._state_since)

    def enter_power_down(self, now: int) -> None:
        """CKE low.  Only legal with all banks precharged; the low-power
        manager precharges before parking a rank."""
        if self.power_state == PowerState.POWER_DOWN:
            return
        for bank in self.banks:
            bank.open_row = None
        self._transition(PowerState.POWER_DOWN, now)

    def wake(self, now: int) -> int:
        """Exit any low-power state; return the time the rank is usable.

        Parked ranks refresh themselves (DDR3 self-refresh / power-down
        with internal refresh), so missed external refreshes are forgiven:
        the refresh schedule restarts from the wake time.
        """
        if self.power_state == PowerState.POWER_DOWN:
            ready = now + self._t.txp
            self.power_down_exits += 1
        elif self.power_state == PowerState.SELF_REFRESH:
            ready = now + self._t.txpdll
            self.power_down_exits += 1
        else:
            return now
        self._transition(PowerState.PRECHARGE_STANDBY, ready)
        self._next_refresh_due = max(self._next_refresh_due,
                                     ready + self._t.trefi)
        for bank in self.banks:
            bank.block_until(ready)
        return ready

    def note_activity(self, now: int) -> None:
        """Track standby-vs-active residency as accesses come and go."""
        any_open = any(bank.open_row is not None for bank in self.banks)
        target = (PowerState.ACTIVE_STANDBY if any_open
                  else PowerState.PRECHARGE_STANDBY)
        if self.power_state in PARKED:
            return
        if self.power_state != target:
            self._transition(target, now)

    def note_active(self, now: int) -> None:
        """:meth:`note_activity` for call sites that just opened a row.

        Every access path calls this right after a CAS, when the touched
        bank's row is guaranteed open — so the bank scan always resolves
        to ACTIVE_STANDBY and can be skipped.  Residency bookkeeping is
        identical to :meth:`note_activity`.
        """
        if memo.CORE.reference:
            self.note_activity(now)
            return
        state = self.power_state
        if state is PowerState.ACTIVE_STANDBY or state in PARKED:
            return
        self._transition(PowerState.ACTIVE_STANDBY, now)

    def finalize(self, end_time: int) -> None:
        """Close out state residency at the end of simulation."""
        self._transition(self.power_state, end_time)
