"""Security tests for the untrusted on-DIMM side of the SDIMM protocols.

The attack surface (Figure 2) includes the DRAM chips and the bus between
the secure buffer and those chips.  These tests check what a probe there
sees: ciphertext only (Independent with encryption), PMMAC detection of
on-DIMM tampering, and path-shaped bucket traces for Split.
"""

import pytest

from repro.core.independent import IndependentProtocol
from repro.core.split import SplitProtocol
from repro.faults.campaign import CampaignSpec, build_faulted_protocol
from repro.obs.audit import bucket_touches
from repro.obs.tracer import CollectingTracer
from repro.oram.integrity import IntegrityError
from repro.oram.path_oram import Op


def payload(value):
    return bytes([value]) * 16


class TestEncryptedIndependentDimm:
    def make(self, **kwargs):
        return IndependentProtocol(global_levels=7, sdimm_count=2,
                                   block_bytes=16, stash_capacity=200,
                                   seed=21, encryption_key=b"dimm key 16byte",
                                   **kwargs)

    def test_correct_with_encryption(self):
        protocol = self.make()
        for address in range(20):
            protocol.write(address, payload(address))
        for address in range(20):
            assert protocol.read(address) == payload(address)

    def test_dimm_holds_only_ciphertext(self):
        protocol = self.make()
        secret = b"TOPSECRET!".ljust(16, b"\0")
        protocol.write(1, secret)
        for sdimm in protocol.sdimms:
            store = sdimm.oram.store
            for bucket in range(store.bucket_count):
                cell = store.snapshot(bucket)
                if cell is not None:
                    assert b"TOPSECRET!" not in cell[0]

    def test_on_dimm_tamper_detected(self):
        protocol = self.make()
        protocol.write(1, payload(1))
        # corrupt one written bucket on some SDIMM
        for sdimm in protocol.sdimms:
            store = sdimm.oram.store
            for bucket in range(store.bucket_count):
                cell = store.snapshot(bucket)
                if cell is not None:
                    ciphertext, _ = cell
                    store.tamper(bucket,
                                 bytes([ciphertext[0] ^ 1]) +
                                 ciphertext[1:])
                    break
        with pytest.raises(IntegrityError):
            for _ in range(300):
                protocol.read(1)

    def test_plain_store_by_default(self):
        """Without a key the buffers run plaintext (fast functional mode)."""
        protocol = IndependentProtocol(global_levels=7, sdimm_count=2,
                                       block_bytes=16, stash_capacity=200)
        from repro.oram.integrity import PlainBucketStore
        assert isinstance(protocol.sdimms[0].oram.store, PlainBucketStore)


class TestSplitDimmTrace:
    def make(self):
        """A traced protocol and, per way, the bucket touches its bus saw."""
        tracer = CollectingTracer()
        protocol = SplitProtocol(levels=6, ways=2, block_bytes=16,
                                 stash_capacity=200, seed=5, tracer=tracer)
        return protocol, lambda buffer: bucket_touches(tracer.events,
                                                       buffer.trace_lane)

    def test_trace_is_whole_paths(self):
        protocol, touches = self.make()
        protocol.read(3)
        for buffer in protocol.buffers:
            kinds = [kind for kind, _ in touches(buffer)]
            assert kinds == ["read"] * 6 + ["write"] * 6
            reads = [bucket for kind, bucket in touches(buffer)
                     if kind == "read"]
            writes = [bucket for kind, bucket in touches(buffer)
                      if kind == "write"]
            assert reads == writes
            assert reads[0] == 0  # root first

    def test_both_ways_see_identical_bucket_sequences(self):
        """Bit-slicing: each SDIMM touches the same buckets of its copy."""
        protocol, touches = self.make()
        for address in range(10):
            protocol.write(address, payload(address))
        first, second = protocol.buffers
        assert touches(first) == touches(second)

    def test_trace_shape_independent_of_pattern(self):
        def trace_of(operations):
            protocol, touches = self.make()
            for address, op, value in operations:
                if op is Op.WRITE:
                    protocol.access(address, op, payload(value))
                else:
                    protocol.access(address, op)
            return [kind for kind, _ in touches(protocol.buffers[0])]

        hot = trace_of([(1, Op.READ, 0)] * 8)
        scan = trace_of([(address, Op.WRITE, address)
                         for address in range(8)])
        assert hot == scan

    def test_retry_refetch_is_a_read(self):
        """A retried metadata read re-reads its bucket on every way."""
        spec = CampaignSpec(design="split", accesses=16, levels=6,
                            bit_flips=2)
        tracer = CollectingTracer()
        protocol, injector, stats = build_faulted_protocol(
            spec, spec.build_plan(), tracer=tracer)
        for index in range(spec.accesses):
            injector.begin_access(index)
            protocol.read(index % 8)
        assert stats.retries > 0
        for buffer in protocol.buffers:
            kinds = [kind for kind, _ in bucket_touches(tracer.events,
                                                        buffer.trace_lane)]
            assert kinds.count("read") == \
                kinds.count("write") + stats.retries
