"""Tests for the bounded batching scheduler (repro.serve.scheduler)."""

import pytest

from repro.core.commands import SdimmCommand
from repro.core.secure_buffer import LinkRecorder
from repro.obs.metrics import MetricsRegistry
from repro.oram.path_oram import Op
from repro.serve.loadgen import Request
from repro.serve import scheduler as scheduler_module
from repro.serve.scheduler import AdmissionRejected, BatchingScheduler


class FakeProtocol:
    """Deterministic in-memory backend with the protocols' access seam."""

    BLOCK = 16
    #: link messages per access: one access costs this many ticks
    LINK_MESSAGES = 10

    def __init__(self):
        self.store = {}
        self.access_log = []
        self.link = LinkRecorder()

    def access(self, address, op, data=None):
        self.access_log.append((address, op))
        for _ in range(self.LINK_MESSAGES):
            self.link.up(SdimmCommand.ACCESS, 0, self.BLOCK)
        previous = self.store.get(address, bytes(self.BLOCK))
        if op is Op.WRITE:
            self.store[address] = data
        return previous


def read(arrival, sequence, address, tenant="t0"):
    return Request(arrival=arrival, tenant=tenant, sequence=sequence,
                   address=address, op=Op.READ)


def write(arrival, sequence, address, data, tenant="t0"):
    return Request(arrival=arrival, tenant=tenant, sequence=sequence,
                   address=address, op=Op.WRITE, data=data)


def run(requests, capacity=8, batch=4, **kwargs):
    scheduler = BatchingScheduler(FakeProtocol(), queue_capacity=capacity,
                                  batch_size=batch, **kwargs)
    return scheduler.run(requests)


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BatchingScheduler(FakeProtocol(), queue_capacity=0)
        with pytest.raises(ValueError):
            BatchingScheduler(FakeProtocol(), queue_capacity=4,
                              batch_size=0)


class TestEmptyAndTrivial:
    def test_empty_timeline(self):
        outcome = run([])
        assert outcome.offered == 0
        assert outcome.completions == []
        assert outcome.shed == []
        assert outcome.shed_rate == 0.0
        assert outcome.utilization == 0.0
        assert outcome.elapsed_ticks == 0

    def test_single_request_accounting(self):
        outcome = run([read(3, 0, 5)])
        assert outcome.admitted == 1
        assert len(outcome.completions) == 1
        completion = outcome.completions[0]
        assert completion.start == 3
        assert completion.finish == 13        # ten link messages
        assert completion.sojourn == 10
        assert outcome.busy_ticks == 10
        assert outcome.elapsed_ticks == 13


class TestBoundedAdmission:
    def burst(self, count):
        """``count`` same-tick arrivals: worst case for the queue bound."""
        return [read(0, sequence, sequence) for sequence in range(count)]

    def test_saturation_sheds_and_bounds_depth(self):
        capacity = 4
        outcome = run(self.burst(20), capacity=capacity, batch=1)
        assert outcome.peak_depth <= capacity
        # one request slips into service before the queue fills; the rest
        # of the same-tick burst is bounded by K
        assert outcome.admitted == capacity + 1
        assert len(outcome.shed) == 20 - outcome.admitted
        assert outcome.shed_rate == pytest.approx(15 / 20)
        # admitted requests all complete; nothing is silently dropped
        assert len(outcome.completions) == outcome.admitted

    def test_shed_records_are_structured(self):
        outcome = run(self.burst(6), capacity=2, batch=1)
        record = outcome.shed[0]
        assert isinstance(record, AdmissionRejected)
        assert record.reason == "queue-full"
        assert record.capacity == 2
        assert record.queue_depth == 2
        assert record.tenant == "t0"
        payload = record.to_dict()
        assert payload["sequence"] == record.sequence
        assert payload["arrival"] == 0

    def test_exact_fill_reaches_the_bound_without_shedding(self):
        """K queued requests is full-but-legal: depth == K, zero shed."""
        capacity = 4
        outcome = run(self.burst(capacity + 1), capacity=capacity, batch=1)
        assert outcome.shed == []
        assert outcome.peak_depth == capacity
        assert outcome.admitted == capacity + 1

    def test_first_shed_happens_exactly_at_the_bound(self):
        capacity = 4
        outcome = run(self.burst(capacity + 2), capacity=capacity, batch=1)
        assert len(outcome.shed) == 1
        record = outcome.shed[0]
        assert record.queue_depth == capacity
        assert record.capacity == capacity
        assert outcome.peak_depth == capacity

    def test_zero_completion_outcome_summarizes_safely(self):
        """Empty runs must render: every quantile key present, zeroed."""
        outcome = run([])
        summary = outcome.sojourn.summary()
        for key in ("count", "mean", "max", "p50", "p95", "p99", "p999"):
            assert summary[key] == 0
        assert outcome.per_tenant == {}

    def test_under_load_nothing_is_shed(self):
        # arrivals spaced wider than the 10-tick service time
        requests = [read(20 * i, i, i) for i in range(10)]
        outcome = run(requests, capacity=1, batch=1)
        assert outcome.shed == []
        assert outcome.peak_depth == 1
        assert outcome.utilization < 1.0


class TestCoalescing:
    def timeline(self):
        hot = 7
        payload = b"\xabJUMP-CUT".ljust(FakeProtocol.BLOCK, b"\x00")
        # The warmup request is served solo at tick 0 and occupies the
        # server until tick 10, so the tick-1 arrivals queue up and get
        # drained as a single batch.
        return [
            read(0, 0, 99),               # warmup, served alone
            read(1, 1, hot),
            read(1, 2, hot),              # duplicate: rides sequence 1
            write(1, 3, hot, payload),    # republishes fresh bytes
            read(1, 4, hot),              # must observe the write
            read(1, 5, 3),                # different address: own access
        ]

    def test_duplicate_reads_coalesce_within_batch(self):
        outcome = run(self.timeline(), batch=8, keep_read_bytes=True)
        assert outcome.coalesced == 2      # sequences 2 and 4
        assert outcome.accesses == 4       # warmup + hot read/write + addr 3
        by_key = dict(outcome.read_bytes)
        assert by_key[("t0", 1)] == by_key[("t0", 2)]
        assert by_key[("t0", 4)].startswith(b"\xabJUMP-CUT")

    def test_coalesced_bytes_match_uncoalesced_run(self):
        batched = run(self.timeline(), batch=8, keep_read_bytes=True)
        serial = run(self.timeline(), batch=1, keep_read_bytes=True)
        assert serial.coalesced == 0
        assert batched.read_bytes == serial.read_bytes

    def test_batching_reduces_service_time(self):
        batched = run(self.timeline(), batch=8)
        serial = run(self.timeline(), batch=1)
        assert batched.busy_ticks < serial.busy_ticks


class TestAccounting:
    def test_metrics_counters(self):
        metrics = MetricsRegistry()
        requests = [read(0, i, i % 2) for i in range(6)]
        scheduler = BatchingScheduler(FakeProtocol(), queue_capacity=4,
                                      batch_size=4, metrics=metrics)
        outcome = scheduler.run(requests)
        snapshot = metrics.as_dict()
        counters = snapshot["counters"]
        assert counters["serve/admitted"] == outcome.admitted
        assert counters["serve/shed"] == len(outcome.shed)
        assert counters["serve/accesses"] == outcome.accesses
        assert counters["serve/coalesced"] == outcome.coalesced
        depth = snapshot["gauges"]["serve/queue_depth"]
        assert depth["last"] == 0                   # fully drained
        assert depth["max"] == outcome.peak_depth

    def test_per_tenant_latency_split(self):
        requests = [read(0, 0, 1, tenant="a"), read(0, 0, 2, tenant="b"),
                    read(5, 1, 3, tenant="a")]
        outcome = run(requests, batch=1)
        assert set(outcome.per_tenant) == {"a", "b"}
        assert outcome.per_tenant["a"].count == 2
        assert outcome.per_tenant["b"].count == 1
        assert outcome.sojourn.count == 3

    def test_sample_rngs_built_once_per_tenant(self, monkeypatch):
        # One for the pooled sojourn, one per tenant: never one per
        # completion.
        built = []

        class CountingRng(scheduler_module.DeterministicRng):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(scheduler_module, "DeterministicRng",
                            CountingRng)
        requests = [read(i, i, i % 5, tenant=f"t{i % 3}")
                    for i in range(30)]
        for _ in range(2):
            built.clear()
            outcome = run(requests, capacity=32, batch=4)
            assert outcome.sojourn.count == 30
            assert len(built) == 1 + len(outcome.per_tenant) == 4

    def test_program_order_preserved_per_tenant(self):
        requests = [read(0, i, i) for i in range(12)]
        outcome = run(requests, capacity=16, batch=4)
        sequences = [c.request.sequence for c in outcome.completions]
        assert sequences == sorted(sequences)
