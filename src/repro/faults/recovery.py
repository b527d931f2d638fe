"""Recovery machinery: retry budgets, backoff, quarantine, failure records.

Detection (PMMAC / Merkle / the Split counter chain) says *something is
wrong*; this module decides what happens next.  The policy mirrors what a
real memory controller would do:

* a verified-failed bucket read is re-fetched up to a retry budget —
  transient corruption (a disturbed line, a torn transfer) heals on the
  re-read.  One proxy, :class:`RetryingStore`, does this for every
  design: it wraps each Independent SDIMM's bucket store, and each Split
  site's metadata reader, whose failed read re-fetches on-DIMM;
* each retry backs off exponentially with deterministic jitter drawn
  from a named :class:`~repro.utils.rng.DeterministicRng` stream, so a
  faulted run still replays byte-identically;
* an exhausted budget raises :class:`RetryExhaustedError`, which the
  campaign layer converts into a quarantine (Independent / INDEP-SPLIT)
  or a structured terminal record (Split) — never a traceback.

Everything observable stays shape-identical: a retry re-issues the same
reads and link messages any fresh access would, which is the
retry-indistinguishability argument in docs/faults.md.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Set

from repro.obs.metrics import MetricsRegistry
from repro.oram.integrity import IntegrityError
from repro.utils.rng import DeterministicRng


class RetryExhaustedError(Exception):
    """A verified-failed read survived every retry in the budget.

    ``site`` names the SDIMM / way / group whose store kept failing;
    ``index`` the bucket; ``attempts`` how many re-reads were spent.
    """

    def __init__(self, message: str, site: int = 0,
                 index: Optional[int] = None, attempts: int = 0,
                 kind: str = "mac"):
        super().__init__(message)
        self.site = site
        self.index = index
        self.attempts = attempts
        self.kind = kind


#: Backoff before retry ``attempt`` (1-based), in logical steps:
#: ``BACKOFF_BASE * BACKOFF_FACTOR**(attempt-1)`` capped at ``BACKOFF_CAP``,
#: plus a jitter draw in ``[0, JITTER)``.
BACKOFF_BASE = 2
BACKOFF_FACTOR = 2
BACKOFF_CAP = 16
JITTER = 2


@dataclass(frozen=True)
class RetryPolicy:
    """A retry budget with bounded exponential backoff.

    ``backoff_steps(attempt, rng)`` returns the logical steps to wait
    before retry ``attempt``, drawing its jitter from the caller's seeded
    stream.
    """

    max_retries: int = 3

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")

    def backoff_steps(self, attempt: int, rng: DeterministicRng) -> int:
        if attempt < 1:
            raise ValueError("attempts are 1-based")
        return (min(BACKOFF_CAP, BACKOFF_BASE * BACKOFF_FACTOR ** (attempt - 1))
                + rng.randrange(JITTER))


#: The :class:`ResilienceStats` counters exported as ``faults/`` metrics.
_EXPORTED_COUNTERS = ("detections", "retries", "recovered_reads",
                      "exhausted", "backoff_steps", "link_drops",
                      "link_duplicates", "link_delays",
                      "link_retransmissions", "buffer_stalls", "quarantines")


@dataclass
class ResilienceStats:
    """Shared accounting for one faulted run.

    Wired into :class:`~repro.obs.metrics.MetricsRegistry` via
    :meth:`fold_into`; the campaign report embeds :meth:`as_dict`.
    """

    detections: int = 0          # failed verifications observed (raw)
    retries: int = 0
    recovered_reads: int = 0     # reads that succeeded after >=1 retry
    exhausted: int = 0
    backoff_steps: int = 0
    link_drops: int = 0
    link_duplicates: int = 0
    link_delays: int = 0
    link_delay_steps: int = 0
    link_retransmissions: int = 0
    buffer_stalls: int = 0
    quarantines: int = 0
    #: structured failure records (exhaustions, terminal events)
    failures: List[Dict[str, object]] = field(default_factory=list)
    quarantined_sites: Set[int] = field(default_factory=set)

    # -- events --------------------------------------------------------

    def note_detection(self, site: int, index: Optional[int],
                       error: BaseException) -> None:
        self.detections += 1

    def note_retry(self, steps: int) -> None:
        self.retries += 1
        self.backoff_steps += steps

    def note_recovered(self, attempts: int) -> None:
        self.recovered_reads += 1

    def note_exhausted(self, site: int, index: Optional[int],
                       attempts: int, error: BaseException) -> None:
        self.exhausted += 1
        self.failures.append({
            "kind": "retry-exhausted",
            "site": site,
            "index": index,
            "attempts": attempts,
            "detail": str(error),
        })

    def note_quarantine(self, site: int) -> None:
        if site not in self.quarantined_sites:
            self.quarantined_sites.add(site)
            self.quarantines += 1

    def note_terminal(self, record: Dict[str, object]) -> None:
        record = dict(record)
        record["terminal"] = True
        self.failures.append(record)

    # -- export --------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        return {**asdict(self),
                "quarantined_sites": sorted(self.quarantined_sites)}

    def fold_into(self, metrics: MetricsRegistry) -> None:
        """Export the counters under the ``faults/`` namespace."""
        for name in _EXPORTED_COUNTERS:
            metrics.counter(f"faults/{name}").inc(getattr(self, name))


class RetryingStore:
    """Store proxy that re-reads on verification failure.

    Wraps one site's (possibly fault-injecting) store: an Independent
    SDIMM's bucket store, or a Split site's
    :class:`~repro.core.split.MetadataReader`, whose ``noun`` names what
    it reads in the failure text.  A read that raises
    :class:`IntegrityError` is retried up to the policy's budget with
    backoff; success after retries counts as a recovery, exhaustion
    raises :class:`RetryExhaustedError` for the campaign layer to
    quarantine on.  Writes and every other attribute pass straight
    through.
    """

    def __init__(self, inner, site: int, policy: RetryPolicy,
                 stats: ResilienceStats, rng: DeterministicRng):
        self._inner = inner
        self._site = site
        self._policy = policy
        self._stats = stats
        self._rng = rng

    def read(self, index: int):
        attempt = 0
        while True:
            try:
                bucket = self._inner.read(index)
            except IntegrityError as error:
                self._stats.note_detection(self._site, index, error)
                attempt += 1
                if attempt > self._policy.max_retries:
                    self._stats.note_exhausted(self._site, index,
                                               attempt - 1, error)
                    noun = getattr(self._inner, "noun", "bucket")
                    raise RetryExhaustedError(
                        f"{noun} {index} on site {self._site} still fails "
                        f"verification after {attempt - 1} retries",
                        site=self._site, index=index, attempts=attempt - 1,
                        kind=getattr(error, "kind", "mac")) from error
                self._stats.note_retry(
                    self._policy.backoff_steps(attempt, self._rng))
                continue
            if attempt:
                self._stats.note_recovered(attempt)
            return bucket

    def write(self, index: int, bucket) -> None:
        self._inner.write(index, bucket)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class ResilientLink:
    """LinkRecorder proxy applying scheduled link faults.

    Dropped messages are retransmitted (the wire shows the lost attempt
    *and* the retransmission — two identically shaped events, exactly
    what a timeout-driven resend looks like); duplicates are delivered
    twice and discarded by the receiver; delays tick the logical link
    clock forward.  None of these change message *shapes*, which is what
    the faulted audit asserts.
    """

    def __init__(self, link, injector, stats: ResilienceStats,
                 policy: RetryPolicy, rng: DeterministicRng):
        self._link = link
        self._injector = injector
        self._stats = stats
        self._policy = policy
        self._rng = rng

    # -- fault application (shared by both directions) -----------------

    def _apply(self, emit, command, sdimm: int, payload_bytes: int) -> None:
        spec = self._injector.match_link()
        if spec is None:
            emit(command, sdimm, payload_bytes)
            return
        from repro.faults.plan import (FAULT_LINK_DELAY, FAULT_LINK_DROP,
                                       FAULT_LINK_DUPLICATE)
        if spec.kind == FAULT_LINK_DROP:
            # the lost attempt occupied the wire; the timeout backs off,
            # then the sender re-issues the identical message
            emit(command, sdimm, payload_bytes)
            self._stats.link_drops += 1
            self._stats.note_retry(self._policy.backoff_steps(1, self._rng))
            emit(command, sdimm, payload_bytes)
            self._stats.link_retransmissions += 1
        elif spec.kind == FAULT_LINK_DUPLICATE:
            emit(command, sdimm, payload_bytes)
            emit(command, sdimm, payload_bytes)
            self._stats.link_duplicates += 1
            self._stats.link_retransmissions += 1
        elif spec.kind == FAULT_LINK_DELAY:
            for _ in range(max(1, spec.delay_steps)):
                self._link.clock.tick()
            self._stats.link_delays += 1
            self._stats.link_delay_steps += max(1, spec.delay_steps)
            emit(command, sdimm, payload_bytes)
        else:  # pragma: no cover - plan validation precludes this
            emit(command, sdimm, payload_bytes)
        self._injector.note_link_applied(spec)

    def up(self, command, sdimm: int, payload_bytes: int) -> None:
        self._apply(self._link.up, command, sdimm, payload_bytes)

    def down(self, command, sdimm: int, payload_bytes: int) -> None:
        self._apply(self._link.down, command, sdimm, payload_bytes)

    def __getattr__(self, name: str):
        return getattr(self._link, name)

    def __len__(self) -> int:
        return len(self._link)
