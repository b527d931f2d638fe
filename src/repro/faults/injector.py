"""Applying a :class:`~repro.faults.plan.FaultPlan` to live protocol state.

The injector drives faults through the *existing* adversarial hooks —
``snapshot`` / ``tamper`` / ``replay`` on the PMMAC and Merkle stores,
``snapshot_bucket`` / ``tamper_bucket`` / ``restore_bucket`` on Split
buffers — so an injected fault is exactly the event the threat model's
adversary could cause, nothing more.

Scheduling is positional (see :mod:`repro.faults.plan`): the injector
counts bucket reads per site and link messages per access, and a spec
fires when its ordinal comes up.  Transient faults (bit-flips, replays)
are *healed* — the saved pre-fault cell is put back — the moment a
verifier catches them, which is what lets the recovery layer's re-read
succeed; persistent stuck cells re-corrupt on every write and can only
end in retry exhaustion.  Both fault proxies, one per site —
:class:`FaultyStore` over an Independent SDIMM's bucket store and
:class:`SplitFaultyReader` over a Split site's metadata reader — sit
inside the one :class:`~repro.faults.recovery.RetryingStore`, which owns
every retry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.split import SplitIntegrityError
from repro.obs.tracer import CATEGORY_FAULT, NULL_TRACER, StepClock, Tracer
from repro.oram.integrity import IntegrityError
from repro.faults.plan import (FAULT_BIT_FLIP, FAULT_REPLAY,
                               FAULT_STUCK_CELL, FaultPlan, FaultSpec)


@dataclass
class ScheduledFault:
    """One plan entry plus its lifecycle flags.

    Kept separate from the frozen :class:`FaultSpec` so equal specs drawn
    twice by a plan stay individually accountable.
    """

    spec: FaultSpec
    applied: bool = False
    vacuous: bool = False
    detected: bool = False
    missed: bool = False
    note: str = ""

    @property
    def kind(self) -> str:
        return self.spec.kind

    @property
    def delay_steps(self) -> int:
        return self.spec.delay_steps


class FaultInjector:
    """Positional matcher and scoreboard for one plan's faults.

    One injector serves one run.  The campaign calls
    :meth:`begin_access` before each protocol access; the fault proxies
    (:class:`FaultyStore` on each read, :class:`SplitFaultyReader` when a
    real access of its site begins,
    :class:`~repro.faults.recovery.ResilientLink` on each message)
    consult the matchers and report outcomes back.  :meth:`finalize`
    closes the run and :meth:`summary` is the detection report the
    acceptance gate checks (every applied integrity fault must be
    detected).
    """

    def __init__(self, plan: FaultPlan, tracer: Tracer = NULL_TRACER,
                 clock: Optional[StepClock] = None):
        self.plan = plan
        self._tracer = tracer
        self._clock = clock
        self._seq = 0
        self._integrity: Dict[int, List[ScheduledFault]] = {}
        self._link: Dict[int, List[ScheduledFault]] = {}
        self._stalls: Dict[int, List[ScheduledFault]] = {}
        for spec in plan.integrity_specs:
            self._integrity.setdefault(spec.access_index,
                                       []).append(ScheduledFault(spec))
        for spec in plan.link_specs:
            self._link.setdefault(spec.access_index,
                                  []).append(ScheduledFault(spec))
        for spec in plan.stall_specs:
            self._stalls.setdefault(spec.access_index,
                                    []).append(ScheduledFault(spec))
        self._access = -1
        self._read_ordinals: Dict[int, int] = {}
        self._link_ordinal = 0

    # -- per-access bookkeeping ----------------------------------------

    def begin_access(self, access_index: int) -> None:
        """Reset the per-access ordinal counters."""
        self._access = access_index
        self._read_ordinals = {}
        self._link_ordinal = 0

    def next_read_ordinal(self, site: int) -> int:
        """Count one bucket-store read on ``site``; returns its ordinal."""
        ordinal = self._read_ordinals.get(site, 0)
        self._read_ordinals[site] = ordinal + 1
        return ordinal

    # -- matchers ------------------------------------------------------

    def match_integrity(self, site: int,
                        ordinal: int) -> Optional[ScheduledFault]:
        """The pending integrity fault for this (access, site, read)."""
        for scheduled in self._integrity.get(self._access, ()):
            if scheduled.applied or scheduled.vacuous:
                continue
            if scheduled.spec.site == site and \
                    scheduled.spec.read_ordinal == ordinal:
                return scheduled
        return None

    def take_integrity_specs(self, site: int) -> List[ScheduledFault]:
        """Every pending integrity fault for this (access, site).

        :class:`SplitFaultyReader` arms faults per access rather than per
        read (a Split metadata fetch is one merged operation), so it
        consumes specs without ordinal matching, when a real access of
        the site begins: a drain dummy access does not consume them.
        """
        return [scheduled
                for scheduled in self._integrity.get(self._access, ())
                if not scheduled.applied and not scheduled.vacuous
                and scheduled.spec.site == site]

    def match_link(self) -> Optional[ScheduledFault]:
        """The pending link fault for the next link message, if any.

        Link faults match by message ordinal only — never by target
        SDIMM, which is a function of the secret leaf.
        """
        ordinal = self._link_ordinal
        self._link_ordinal += 1
        for scheduled in self._link.get(self._access, ()):
            if scheduled.applied or scheduled.vacuous:
                continue
            if scheduled.spec.op_ordinal == ordinal:
                return scheduled
        return None

    def take_stall_specs(self) -> List[ScheduledFault]:
        """Buffer-stall specs scheduled for the current access."""
        return [scheduled
                for scheduled in self._stalls.get(self._access, ())
                if not scheduled.applied and not scheduled.vacuous]

    # -- outcome reporting ---------------------------------------------

    def _emit(self, name: str, scheduled: ScheduledFault, **args) -> None:
        if not self._tracer.enabled:
            return
        if self._clock is not None:
            timestamp = self._clock.now
        else:
            timestamp = self._seq
        self._seq += 1
        self._tracer.instant(name, CATEGORY_FAULT, "faults", timestamp,
                             kind=scheduled.spec.kind,
                             access=scheduled.spec.access_index, **args)

    def note_applied(self, scheduled: ScheduledFault, site: int = 0,
                     index: int = 0) -> None:
        scheduled.applied = True
        self._emit("fault-armed", scheduled, site=site, index=index)

    def note_link_applied(self, scheduled: ScheduledFault) -> None:
        scheduled.applied = True
        self._emit("link-fault", scheduled)

    def note_vacuous(self, scheduled: ScheduledFault,
                     reason: str = "") -> None:
        scheduled.vacuous = True
        scheduled.note = reason
        self._emit("fault-vacuous", scheduled, reason=reason)

    def note_detected(self, scheduled: ScheduledFault) -> None:
        if scheduled.detected:
            return
        scheduled.detected = True
        self._emit("fault-detected", scheduled)

    def note_missed(self, scheduled: ScheduledFault) -> None:
        scheduled.missed = True
        self._emit("fault-missed", scheduled)

    # -- scoreboard ----------------------------------------------------

    def finalize(self) -> None:
        """Close the run's scoreboard.

        An applied integrity fault no verifier caught is missed; every
        never-triggered spec is vacuous (its schedule point never came).
        """
        for scheduled in self._flat(self._integrity):
            if scheduled.applied and not (scheduled.detected or
                                          scheduled.missed):
                self.note_missed(scheduled)
        for table in (self._integrity, self._link, self._stalls):
            for entries in table.values():
                for scheduled in entries:
                    if not scheduled.applied and not scheduled.vacuous:
                        self.note_vacuous(scheduled, "schedule point "
                                          "never reached")

    def _flat(self, table: Dict[int, List[ScheduledFault]]
              ) -> List[ScheduledFault]:
        return [scheduled for entries in table.values()
                for scheduled in entries]

    def summary(self) -> Dict[str, object]:
        """The detection scoreboard embedded in every campaign report."""
        integrity = self._flat(self._integrity)
        link = self._flat(self._link)
        stalls = self._flat(self._stalls)
        applied = sum(s.applied for s in integrity)
        detected = sum(s.detected for s in integrity)
        return {
            "integrity": {
                "scheduled": len(integrity),
                "applied": applied,
                "vacuous": sum(s.vacuous for s in integrity),
                "detected": detected,
                "missed": sum(s.missed for s in integrity),
                "rate": (detected / applied) if applied else 1.0,
            },
            "link": {
                "scheduled": len(link),
                "applied": sum(s.applied for s in link),
                "vacuous": sum(s.vacuous for s in link),
            },
            "stalls": {
                "scheduled": len(stalls),
                "applied": sum(s.applied for s in stalls),
                "vacuous": sum(s.vacuous for s in stalls),
            },
        }


class FaultyStore:
    """Bucket-store proxy injecting scheduled integrity faults on reads.

    Wraps an :class:`~repro.oram.integrity.EncryptedBucketStore` or
    :class:`~repro.oram.merkle.MerkleBucketStore` (anything exposing the
    ``snapshot``/``tamper``/``replay`` hooks; stores without them make
    every scheduled fault vacuous).  Sits *inside* the recovery layer's
    :class:`~repro.faults.recovery.RetryingStore`, so a retry re-reads
    through this proxy — the consumed spec does not re-arm, and a healed
    transient verifies cleanly the second time.
    """

    def __init__(self, injector: FaultInjector, site: int, inner):
        self._injector = injector
        self._site = site
        self._inner = inner
        self._hooks = hasattr(inner, "snapshot") and \
            hasattr(inner, "tamper") and hasattr(inner, "replay")
        # Merkle snapshots are (cell, hash-path) pairs and replay takes
        # them apart; the PMMAC store round-trips a single cell.
        self._merkle = hasattr(inner, "_hashes")
        self._history: Dict[int, object] = {}   # index -> previous cell
        self._stuck: Dict[int, ScheduledFault] = {}

    # -- hook adapters -------------------------------------------------

    def _restore(self, index: int, saved) -> None:
        if self._merkle:
            cell, hashes = saved
            self._inner.replay(index, cell, dict(hashes))
        else:
            self._inner.replay(index, saved)

    def _flip(self, index: int, saved) -> None:
        if self._merkle:
            ciphertext = saved[0][1]
        else:
            ciphertext = saved[0]
        self._inner.tamper(index,
                           bytes([ciphertext[0] ^ 0x01]) + ciphertext[1:])

    def _arm(self, index: int, scheduled: ScheduledFault
             ) -> Tuple[Optional[ScheduledFault], object]:
        if not self._hooks:
            self._injector.note_vacuous(scheduled, "store has no "
                                        "adversarial hooks")
            return None, None
        saved = self._inner.snapshot(index)
        kind = scheduled.spec.kind
        if kind == FAULT_REPLAY:
            stale = self._history.get(index)
            if stale is None or stale == saved:
                self._injector.note_vacuous(scheduled, "no stale version "
                                            "to replay")
                return None, None
            self._restore(index, stale)
        elif saved is None:
            self._injector.note_vacuous(scheduled, "cell never written")
            return None, None
        elif kind == FAULT_BIT_FLIP:
            self._flip(index, saved)
        elif kind == FAULT_STUCK_CELL:
            self._stuck[index] = scheduled
            self._flip(index, saved)
        else:  # pragma: no cover - plan validation precludes this
            self._injector.note_vacuous(scheduled, "not an integrity kind")
            return None, None
        self._injector.note_applied(scheduled, site=self._site, index=index)
        return scheduled, saved

    # -- store contract ------------------------------------------------

    def read(self, index: int):
        ordinal = self._injector.next_read_ordinal(self._site)
        scheduled = self._injector.match_integrity(self._site, ordinal)
        armed, saved = (None, None)
        if scheduled is not None:
            armed, saved = self._arm(index, scheduled)
        try:
            bucket = self._inner.read(index)
        except IntegrityError:
            if armed is not None:
                self._injector.note_detected(armed)
                if armed.spec.kind != FAULT_STUCK_CELL and \
                        saved is not None:
                    # transient: the adversary's window closed — the true
                    # cell is back for the recovery layer's re-read
                    self._restore(index, saved)
            elif index in self._stuck:
                self._injector.note_detected(self._stuck[index])
            raise
        if armed is not None:
            self._injector.note_missed(armed)
        return bucket

    def write(self, index: int, bucket) -> None:
        if self._hooks:
            current = self._inner.snapshot(index)
            if current is not None:
                self._history[index] = current
        self._inner.write(index, bucket)
        if self._hooks and index in self._stuck:
            fresh = self._inner.snapshot(index)
            if fresh is not None:
                # a stuck bank corrupts every write that lands in it
                self._flip(index, fresh)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class SplitFaultyReader:
    """Split metadata-reader proxy injecting scheduled integrity faults.

    The Split analogue of :class:`FaultyStore`, with the same
    constructor: one proxy per site (the group for INDEP-SPLIT, 0 for
    plain Split), inside the site's
    :class:`~repro.faults.recovery.RetryingStore`.  A Split access
    always reads the root bucket's metadata, so faults target bucket 0 —
    detection is guaranteed whenever the site is accessed at all.  A
    site's faults arm when a real access of that site begins
    (:meth:`begin_access`, the hook
    :meth:`~repro.core.split.SplitProtocol.access` calls); drain dummy
    accesses do not arm, so a spec whose site sees no real access at its
    index ends vacuous.  Every verification failure heals the site.
    """

    TARGET_BUCKET = 0

    def __init__(self, injector: FaultInjector, site: int, inner):
        self._injector = injector
        self._site = site
        self._inner = inner
        self._buffers = inner.buffers
        #: the clean cells of the last armed access: stale-replay material
        self._history: Optional[List[object]] = None
        #: [(scheduled, pre-fault snapshot), ...] not yet healed; entry 0's
        #: snapshot is the fully clean state
        self._saved: List[Tuple[ScheduledFault, List[object]]] = []
        self._stuck: Optional[ScheduledFault] = None

    def _snapshot(self) -> List[object]:
        return [buffer.snapshot_bucket(self.TARGET_BUCKET)
                for buffer in self._buffers]

    def _tamper(self, bit: int) -> None:
        for buffer in self._buffers:
            if buffer.snapshot_bucket(self.TARGET_BUCKET) is not None:
                buffer.tamper_bucket(self.TARGET_BUCKET, bit)
                return

    def _restore(self, cells: List[object]) -> None:
        for buffer, cell in zip(self._buffers, cells):
            buffer.restore_bucket(self.TARGET_BUCKET, cell)

    def begin_access(self) -> None:
        """Apply this site's faults scheduled for the current access."""
        clean = self._snapshot()
        # Each corruption of this access flips its own bit: two flips of
        # one bit would cancel, leaving nothing to detect.
        flips = 0
        if self._stuck is not None:
            # persistent: re-corrupt whatever the last write-back stored
            self._tamper(flips)
            flips += 1
        for scheduled in self._injector.take_integrity_specs(self._site):
            snap = self._snapshot()
            kind = scheduled.spec.kind
            if kind == FAULT_REPLAY:
                if self._history is None or self._history == snap:
                    self._injector.note_vacuous(
                        scheduled, "no stale version to replay")
                    continue
                self._restore(self._history)
            elif all(cell is None for cell in snap):
                self._injector.note_vacuous(scheduled, "cell never written")
                continue
            elif kind == FAULT_BIT_FLIP:
                self._tamper(flips)
                flips += 1
            elif kind == FAULT_STUCK_CELL:
                self._stuck = scheduled
                self._tamper(flips)
                flips += 1
            else:  # pragma: no cover - plan validation precludes this
                self._injector.note_vacuous(scheduled,
                                            "not an integrity kind")
                continue
            self._saved.append((scheduled, snap))
            self._injector.note_applied(scheduled, site=self._site,
                                        index=self.TARGET_BUCKET)
        # the pre-tamper state of this access is the next access's
        # stale-replay material (write-back will bump its counter)
        self._history = clean

    def heal(self) -> None:
        """Run on every verification failure of this site's reads.

        Attributes the detection to each fault armed on the site, then
        restores the clean state so the retry succeeds — unless a
        persistent stuck cell is involved, which never heals and rides
        to retry exhaustion.
        """
        for scheduled, _ in self._saved:
            self._injector.note_detected(scheduled)
        if self._stuck is not None:
            self._injector.note_detected(self._stuck)
            return
        if self._saved:
            self._restore(self._saved[0][1])
            self._saved = []

    def read(self, bucket: int):
        try:
            return self._inner.read(bucket)
        except SplitIntegrityError:
            self.heal()
            raise

    def __getattr__(self, name: str):
        return getattr(self._inner, name)
