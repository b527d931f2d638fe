"""Tests for repro.faults.recovery: retries, backoff, link resilience."""

import pytest

from repro.core.commands import SdimmCommand
from repro.core.designs import build_protocol
from repro.core.secure_buffer import LinkRecorder
from repro.faults.injector import FaultInjector, SplitFaultyReader
from repro.faults.plan import (FAULT_BIT_FLIP, FAULT_LINK_DELAY,
                               FAULT_LINK_DROP, FAULT_LINK_DUPLICATE,
                               FAULT_STUCK_CELL, FaultPlan, FaultSpec)
from repro.faults.recovery import (JITTER, ResilienceStats, ResilientLink,
                                   RetryExhaustedError, RetryPolicy,
                                   RetryingStore)
from repro.obs.audit import link_shapes
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import CollectingTracer
from repro.oram.integrity import IntegrityError
from repro.utils.rng import DeterministicRng


def rng():
    return DeterministicRng(9, "faults/test")


def jittered(*bases):
    """``bases`` plus the jitter :func:`rng`'s stream draws, in order."""
    stream = rng()
    return [base + stream.randrange(JITTER) for base in bases]


class TestRetryPolicy:
    def test_backoff_grows_exponentially_to_the_cap(self):
        stream = rng()
        steps = [RetryPolicy().backoff_steps(a, stream)
                 for a in (1, 2, 3, 4, 5)]
        assert steps == jittered(2, 4, 8, 16, 16)

    def test_jitter_is_bounded_and_deterministic(self):
        first = [RetryPolicy().backoff_steps(1, rng()) for _ in range(8)]
        second = [RetryPolicy().backoff_steps(1, rng()) for _ in range(8)]
        assert first == second
        assert all(2 <= steps < 2 + JITTER for steps in first)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy().backoff_steps(0, rng())


class _FlakyStore:
    """Fails verification a fixed number of times, then succeeds."""

    def __init__(self, failures: int):
        self.failures = failures
        self.reads = 0
        self.written = {}
        self.extra = "delegated"

    def read(self, index):
        self.reads += 1
        if self.failures > 0:
            self.failures -= 1
            raise IntegrityError("flaky", index=index, kind="mac")
        return ("bucket", index)

    def write(self, index, bucket):
        self.written[index] = bucket


class TestRetryingStore:
    def wrap(self, failures, max_retries=3):
        stats = ResilienceStats()
        store = RetryingStore(_FlakyStore(failures), site=1,
                              policy=RetryPolicy(max_retries=max_retries),
                              stats=stats, rng=rng())
        return store, stats

    def test_clean_read_counts_nothing(self):
        store, stats = self.wrap(failures=0)
        assert store.read(4) == ("bucket", 4)
        assert stats.detections == 0
        assert stats.retries == 0
        assert stats.recovered_reads == 0

    def test_transient_failures_recover(self):
        store, stats = self.wrap(failures=2)
        assert store.read(4) == ("bucket", 4)
        assert stats.detections == 2
        assert stats.retries == 2
        assert stats.recovered_reads == 1
        assert stats.backoff_steps == sum(jittered(2, 4))
        assert stats.exhausted == 0

    def test_exhaustion_raises_structured_error(self):
        store, stats = self.wrap(failures=99, max_retries=2)
        with pytest.raises(RetryExhaustedError) as excinfo:
            store.read(7)
        error = excinfo.value
        assert error.site == 1
        assert error.index == 7
        assert error.attempts == 2
        assert error.kind == "mac"
        assert stats.exhausted == 1
        assert stats.failures[0]["kind"] == "retry-exhausted"
        assert stats.failures[0]["index"] == 7

    def test_write_and_attributes_pass_through(self):
        store, _ = self.wrap(failures=0)
        store.write(2, "payload")
        assert store._inner.written[2] == "payload"
        assert store.extra == "delegated"


def split_reads_behind_retries(design, max_retries, *specs):
    """A split design whose metadata reads run through the campaign's
    proxies: each site's :class:`SplitFaultyReader` inside
    :class:`RetryingStore`; returns the proxies by site.

    The root bucket is written, and ``specs`` are scheduled for access
    0: they arm when the next access of their site begins.
    """
    protocol = build_protocol(design, levels=5, key=b"retry-test-key!!")
    for address in range(8):
        protocol.write(address, bytes([address + 1]) * 64)
    injector = FaultInjector(FaultPlan(seed=1, specs=tuple(sorted(specs))))
    stats = ResilienceStats()
    proxies = {}

    def wrap(site, reader):
        proxies[site] = SplitFaultyReader(injector, site, reader)
        return RetryingStore(proxies[site], site, RetryPolicy(max_retries),
                             stats, rng())

    protocol.wrap_stores(wrap)
    injector.begin_access(0)
    return protocol, proxies, injector, stats


def integrity_spec(kind, site=0):
    return FaultSpec(access_index=0, kind=kind, site=site,
                     persistent=kind == FAULT_STUCK_CELL)


class TestRetryingSplitReader:
    def test_retries_below_budget(self):
        protocol, _, injector, stats = split_reads_behind_retries(
            "split", 2, integrity_spec(FAULT_BIT_FLIP))
        assert protocol.read(3) == bytes([4]) * 64
        assert stats.detections == 1
        assert stats.retries == 1
        assert stats.recovered_reads == 1
        assert stats.backoff_steps == sum(jittered(2))
        assert injector.summary()["integrity"]["detected"] == 1

    def test_heal_runs_on_every_failure(self, monkeypatch):
        protocol, proxies, injector, stats = split_reads_behind_retries(
            "split", 2, integrity_spec(FAULT_STUCK_CELL))
        healed = []
        heal = proxies[0].heal
        monkeypatch.setattr(proxies[0], "heal",
                            lambda: (healed.append(0), heal()))
        with pytest.raises(RetryExhaustedError):
            protocol.read(3)
        # the heal saw the exhausting failure too — that is how the fault
        # proxy attributes detections for persistent faults
        assert healed == [0, 0, 0]
        assert stats.detections == 3
        assert injector.summary()["integrity"]["detected"] == 1

    def test_exhaustion_names_the_site(self):
        probe, *_ = split_reads_behind_retries("indep-split", 1)
        site = probe.locate(3)
        protocol, _, _, stats = split_reads_behind_retries(
            "indep-split", 1, integrity_spec(FAULT_STUCK_CELL, site=site))
        with pytest.raises(RetryExhaustedError) as excinfo:
            protocol.read(3)
        assert excinfo.value.site == site
        assert excinfo.value.attempts == 1
        assert str(excinfo.value).startswith(
            f"split bucket 0 on site {site} still fails verification")
        assert stats.exhausted == 1


def link_with_plan(*specs, seed=4):
    plan = FaultPlan(seed=seed, specs=tuple(sorted(specs)))
    injector = FaultInjector(plan)
    recorder = LinkRecorder(tracer=CollectingTracer())
    stats = ResilienceStats()
    link = ResilientLink(recorder, injector, stats, RetryPolicy(), rng())
    injector.begin_access(0)
    return link, recorder, stats, injector


def link_spec(kind, op_ordinal=0, delay_steps=0):
    return FaultSpec(access_index=0, kind=kind, op_ordinal=op_ordinal,
                     delay_steps=delay_steps)


class TestResilientLink:
    def test_clean_passthrough(self):
        link, recorder, stats, _ = link_with_plan()
        link.up(SdimmCommand.ACCESS, 0, 64)
        link.down(None, 1, 64)
        assert len(recorder) == 2
        assert stats.link_drops == 0

    def test_drop_retransmits_with_identical_shape(self):
        link, recorder, stats, _ = link_with_plan(
            link_spec(FAULT_LINK_DROP))
        link.up(SdimmCommand.ACCESS, 0, 64)
        shapes = link_shapes(recorder.tracer.events, recorder.lane)
        assert len(shapes) == 2
        assert shapes[0] == shapes[1]
        assert stats.link_drops == 1
        assert stats.link_retransmissions == 1
        assert stats.retries == 1           # the timeout backed off

    def test_duplicate_delivers_twice(self):
        link, recorder, stats, _ = link_with_plan(
            link_spec(FAULT_LINK_DUPLICATE))
        link.down(None, 1, 64)
        assert len(recorder) == 2
        assert stats.link_duplicates == 1

    def test_delay_ticks_the_clock_not_the_wire(self):
        link, recorder, stats, _ = link_with_plan(
            link_spec(FAULT_LINK_DELAY, delay_steps=5))
        before = recorder.clock.now
        link.up(SdimmCommand.ACCESS, 0, 64)
        assert len(recorder) == 1           # exactly one event on the wire
        assert recorder.clock.now >= before + 5
        assert stats.link_delays == 1
        assert stats.link_delay_steps == 5

    def test_op_ordinal_targets_the_nth_message(self):
        link, recorder, _, _ = link_with_plan(
            link_spec(FAULT_LINK_DROP, op_ordinal=2))
        for _ in range(3):
            link.up(SdimmCommand.ACCESS, 0, 64)
        assert len(recorder) == 4           # third message retransmitted

    def test_summary_counts_applied_link_faults(self):
        link, _, _, injector = link_with_plan(link_spec(FAULT_LINK_DROP))
        link.up(SdimmCommand.ACCESS, 0, 64)
        injector.finalize()
        assert injector.summary()["link"]["applied"] == 1


class TestResilienceStats:
    def test_fold_into_exports_fault_counters(self):
        stats = ResilienceStats()
        stats.note_detection(0, 3, IntegrityError("x"))
        stats.note_retry(4)
        stats.note_recovered(1)
        stats.note_quarantine(2)
        stats.note_quarantine(2)            # idempotent per site
        metrics = MetricsRegistry()
        stats.fold_into(metrics)
        assert metrics.counter("faults/detections").value == 1
        assert metrics.counter("faults/retries").value == 1
        assert metrics.counter("faults/backoff_steps").value == 4
        assert metrics.counter("faults/quarantines").value == 1

    def test_terminal_records_are_flagged(self):
        stats = ResilienceStats()
        stats.note_terminal({"kind": "stash-overflow", "detail": "boom"})
        assert stats.as_dict()["failures"] == [
            {"kind": "stash-overflow", "detail": "boom", "terminal": True}]
