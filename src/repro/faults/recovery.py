"""Recovery machinery: retry budgets, backoff, quarantine, failure records.

Detection (PMMAC / Merkle / the Split counter chain) says *something is
wrong*; this module decides what happens next.  The policy mirrors what a
real memory controller would do:

* a verified-failed bucket read is re-fetched up to a retry budget —
  transient corruption (a disturbed line, a torn transfer) heals on the
  re-read;
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

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    ``backoff_steps(attempt, rng)`` returns the logical steps to wait
    before retry ``attempt`` (1-based): ``base * factor**(attempt-1)``
    capped at ``cap``, plus a jitter draw in ``[0, jitter)`` from the
    caller's seeded stream.
    """

    max_retries: int = 3
    backoff_base: int = 2
    backoff_factor: int = 2
    backoff_cap: int = 16
    jitter: int = 2

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base < 1 or self.backoff_factor < 1:
            raise ValueError("backoff base/factor must be >= 1")

    def backoff_steps(self, attempt: int, rng: DeterministicRng) -> int:
        if attempt < 1:
            raise ValueError("attempts are 1-based")
        steps = min(self.backoff_cap,
                    self.backoff_base * self.backoff_factor ** (attempt - 1))
        if self.jitter > 0:
            steps += rng.randrange(self.jitter)
        return steps

    def to_dict(self) -> Dict[str, int]:
        return {"max_retries": self.max_retries,
                "backoff_base": self.backoff_base,
                "backoff_factor": self.backoff_factor,
                "backoff_cap": self.backoff_cap,
                "jitter": self.jitter}


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
        return {
            "detections": self.detections,
            "retries": self.retries,
            "recovered_reads": self.recovered_reads,
            "exhausted": self.exhausted,
            "backoff_steps": self.backoff_steps,
            "link_drops": self.link_drops,
            "link_duplicates": self.link_duplicates,
            "link_delays": self.link_delays,
            "link_delay_steps": self.link_delay_steps,
            "link_retransmissions": self.link_retransmissions,
            "buffer_stalls": self.buffer_stalls,
            "quarantines": self.quarantines,
            "quarantined_sites": sorted(self.quarantined_sites),
            "failures": [dict(record) for record in self.failures],
        }

    def fold_into(self, metrics: MetricsRegistry) -> None:
        """Export the counters under the ``faults/`` namespace."""
        metrics.counter("faults/detections").inc(self.detections)
        metrics.counter("faults/retries").inc(self.retries)
        metrics.counter("faults/recovered_reads").inc(self.recovered_reads)
        metrics.counter("faults/exhausted").inc(self.exhausted)
        metrics.counter("faults/backoff_steps").inc(self.backoff_steps)
        metrics.counter("faults/link_drops").inc(self.link_drops)
        metrics.counter("faults/link_duplicates").inc(self.link_duplicates)
        metrics.counter("faults/link_delays").inc(self.link_delays)
        metrics.counter("faults/link_retransmissions").inc(
            self.link_retransmissions)
        metrics.counter("faults/buffer_stalls").inc(self.buffer_stalls)
        metrics.counter("faults/quarantines").inc(self.quarantines)


class RetryingStore:
    """Bucket-store proxy that re-reads on verification failure.

    Wraps the (possibly fault-injecting) store of one Independent SDIMM.
    A read that raises :class:`IntegrityError` is retried up to the
    policy's budget with backoff; success after retries counts as a
    recovery, exhaustion raises :class:`RetryExhaustedError` for the
    campaign layer to quarantine on.  Writes and every other attribute
    pass straight through.
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
                    raise RetryExhaustedError(
                        f"bucket {index} on site {self._site} still fails "
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


class SplitResilienceHandle:
    """Retry policy for a Split protocol's metadata merges.

    Installed via ``SplitProtocol.attach_resilience``; consulted from
    ``_read_bucket_metadata`` with the 1-based attempt count.  Returns
    ``True`` to retry (after recording backoff and healing any armed
    transient fault) and raises :class:`RetryExhaustedError` once the
    budget is spent.
    """

    def __init__(self, policy: RetryPolicy, stats: ResilienceStats,
                 rng: DeterministicRng, site: int = 0, heal=None):
        self._policy = policy
        self._stats = stats
        self._rng = rng
        self._site = site
        self._heal = heal

    def on_integrity_failure(self, label: str, bucket: int,
                             error: BaseException, attempt: int) -> bool:
        self._stats.note_detection(self._site, bucket, error)
        if self._heal is not None:
            # runs on *every* failure so the fault driver can attribute
            # the detection; transients are restored, stuck cells are not
            self._heal(bucket)
        if attempt > self._policy.max_retries:
            self._stats.note_exhausted(self._site, bucket, attempt - 1,
                                       error)
            raise RetryExhaustedError(
                f"{label} bucket {bucket} on site {self._site} still fails "
                f"verification after {attempt - 1} retries",
                site=self._site, index=bucket, attempts=attempt - 1,
                kind=getattr(error, "kind", "mac")) from error
        self._stats.note_retry(self._policy.backoff_steps(attempt,
                                                          self._rng))
        return True


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
