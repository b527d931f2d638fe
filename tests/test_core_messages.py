"""Tests for the wire-format message layer and the fully-wired protocol."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.commands import SdimmCommand
from repro.core.messages import (
    AccessMessage,
    AppendMessage,
    ResultMessage,
    WiredIndependentProtocol,
)
from repro.oram.path_oram import Op


def payload(value, size=64):
    return bytes([value]) * size


class TestMessageFormats:
    @given(st.integers(0, 2**60), st.integers(0, 2**30),
           st.sampled_from([Op.READ, Op.WRITE]), st.integers(0, 255))
    def test_access_roundtrip(self, address, leaf, op, fill):
        message = AccessMessage(address, leaf, op, payload(fill))
        parsed = AccessMessage.parse(message.serialize(), 64)
        assert parsed == message

    def test_access_fixed_size(self):
        """Reads and writes serialize to identical lengths (obliviousness)."""
        read = AccessMessage(1, 2, Op.READ, payload(0))
        write = AccessMessage(10**9, 2**20, Op.WRITE, payload(255))
        assert len(read.serialize()) == len(write.serialize())

    def test_access_rejects_bad_size(self):
        with pytest.raises(ValueError):
            AccessMessage.parse(b"short", 64)

    @given(st.integers(0, 2**30), st.booleans(), st.integers(0, 255))
    def test_result_roundtrip(self, leaf, dummy, fill):
        message = ResultMessage(payload(fill), leaf, dummy)
        assert ResultMessage.parse(message.serialize(), 64) == message

    @given(st.booleans(), st.integers(0, 2**40), st.integers(0, 2**30),
           st.integers(0, 255))
    def test_append_roundtrip(self, dummy, address, leaf, fill):
        message = AppendMessage(dummy, address, leaf, payload(fill))
        assert AppendMessage.parse(message.serialize(), 64) == message

    def test_dummy_append_same_size_as_real(self):
        real = AppendMessage(False, 5, 6, payload(7))
        dummy = AppendMessage.dummy(64)
        assert len(real.serialize()) == len(dummy.serialize())


class TestWiredProtocol:
    """End to end: every byte as an encrypted, Table I-framed DDR message."""

    def make(self, levels=8, sdimms=2, seed=11):
        return WiredIndependentProtocol(global_levels=levels,
                                        sdimm_count=sdimms, seed=seed)

    def test_read_after_write(self):
        protocol = self.make()
        protocol.write(5, payload(42))
        assert protocol.read(5) == payload(42)

    def test_unwritten_reads_zero(self):
        protocol = self.make()
        assert protocol.read(9) == bytes(64)

    def test_survives_migrations(self):
        protocol = self.make(sdimms=4, seed=3)
        protocol.write(77, payload(1))
        for round_number in range(2, 40):
            assert protocol.read(77) == payload(round_number - 1)
            protocol.write(77, payload(round_number % 256))

    @settings(max_examples=5, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 255)),
                    min_size=1, max_size=25))
    def test_matches_reference_dict(self, operations):
        protocol = self.make(levels=6)
        reference = {}
        for address, value in operations:
            protocol.write(address, payload(value))
            reference[address] = payload(value)
        for address, expected in reference.items():
            assert protocol.read(address) == expected

    def test_wrap_stores_reaches_every_buffer(self):
        """The fault seam wraps the store behind each port."""
        protocol = self.make()
        reads = {}

        class CountingStore:
            def __init__(self, site, store):
                self.site, self.store = site, store
                reads[site] = 0

            def read(self, index):
                reads[self.site] += 1
                return self.store.read(index)

            def write(self, index, bucket):
                self.store.write(index, bucket)

        protocol.wrap_stores(CountingStore)
        for address in range(8):
            protocol.write(address, payload(address))
        assert all(protocol.read(address) == payload(address)
                   for address in range(8))
        assert sorted(reads) == [0, 1] and all(reads.values())

    def test_frames_flow_through_both_ports(self):
        protocol = self.make()
        protocol.write(1, payload(1))
        protocol.read(1)
        assert all(port.frames_handled > 0 for port in protocol.sdimm_ports)
        assert all(port.frames_sent > 0 for port in protocol.cpu_ports)

    def test_probe_then_fetch_result_discipline(self):
        """FETCH_RESULT without a pending response must fail — the DDR
        slave cannot invent data."""
        protocol = self.make()
        cpu = protocol.cpu_ports[0]
        port = protocol.sdimm_ports[0]
        assert port.handle(cpu.send_probe()) == b"\x00"
        with pytest.raises(LookupError):
            port.handle(cpu.send_fetch_result())

    def test_tampered_frame_rejected(self):
        """Bit-flipping a frame on the bus trips the link MAC."""
        from repro.crypto.mac import MacError

        protocol = self.make()
        cpu = protocol.cpu_ports[0]
        message = AccessMessage(1, protocol.posmap.lookup(1), Op.READ,
                                bytes(64))
        frame = cpu.send(SdimmCommand.ACCESS, message)
        corrupted = frame.payload[:-1] + bytes([frame.payload[-1] ^ 1])
        from repro.core.commands import DdrFrame
        bad_frame = DdrFrame(frame.is_write, frame.ras, frame.cas_sequence,
                             corrupted)
        with pytest.raises(MacError):
            protocol.sdimm_ports[0].handle(bad_frame)

    def test_replayed_frame_rejected(self):
        """Replaying an old encrypted frame verbatim trips the counter
        check: the port tracks the highest message counter seen."""
        from repro.core.messages import ReplayError

        protocol = self.make()
        owner = protocol.sdimm_ports[0].buffer.owner_of(
            protocol.posmap.lookup(1))
        cpu = protocol.cpu_ports[owner]
        port = protocol.sdimm_ports[owner]
        message = AccessMessage(1, protocol.posmap.lookup(1), Op.READ,
                                bytes(64))
        frame = cpu.send(SdimmCommand.ACCESS, message)
        port.handle(frame)
        port.handle(cpu.send_probe())
        port.handle(cpu.send_fetch_result())
        with pytest.raises(ReplayError):
            port.handle(frame)  # verbatim replay of the captured frame
