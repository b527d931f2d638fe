"""Functional tests for the Independent ORAM protocol."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.commands import SdimmCommand
from repro.core.independent import IndependentProtocol
from repro.obs.audit import link_instants, link_shapes
from repro.obs.tracer import CollectingTracer
from repro.oram.path_oram import Op


def make_protocol(levels=8, sdimms=2, seed=2018, p=0.1, **kwargs):
    return IndependentProtocol(
        global_levels=levels, sdimm_count=sdimms, block_bytes=16,
        stash_capacity=200, drain_probability=p, seed=seed, **kwargs)


def traced_protocol(**kwargs):
    """A protocol whose link messages land in a fresh tracer."""
    tracer = CollectingTracer()
    return make_protocol(tracer=tracer, **kwargs), tracer


def sent(tracer, protocol, command, since=0):
    """The ``command`` messages on the protocol's link after event
    ``since`` of the trace."""
    return [event for event in link_instants(tracer.events[since:],
                                             protocol.link.lane)
            if event.name == command.value]


def payload(value):
    return value.to_bytes(4, "little") * 4


class TestCorrectness:
    def test_read_after_write(self):
        protocol = make_protocol()
        protocol.write(5, payload(42))
        assert protocol.read(5) == payload(42)

    def test_unwritten_reads_zero(self):
        protocol = make_protocol()
        assert protocol.read(9) == bytes(16)

    def test_survives_many_migrations(self):
        """The acid test: blocks hop between SDIMMs and remain readable."""
        protocol = make_protocol(levels=8, sdimms=4, seed=3)
        protocol.write(77, payload(1))
        for round_number in range(2, 60):
            assert protocol.read(77) == payload(round_number - 1)
            protocol.write(77, payload(round_number))

    def test_many_blocks(self):
        protocol = make_protocol(sdimms=4)
        for address in range(40):
            protocol.write(address, payload(address + 500))
        for address in range(40):
            assert protocol.read(address) == payload(address + 500)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 255)),
                    min_size=1, max_size=40))
    def test_matches_reference_dict(self, operations):
        protocol = make_protocol(levels=6)
        reference = {}
        for address, value in operations:
            protocol.write(address, payload(value))
            reference[address] = payload(value)
        for address, expected in reference.items():
            assert protocol.read(address) == expected

    def test_write_requires_data(self):
        with pytest.raises(ValueError):
            make_protocol().access(1, Op.WRITE)


class TestDistribution:
    def test_blocks_spread_over_sdimms(self):
        protocol = make_protocol(levels=10, sdimms=4, seed=5)
        for address in range(200):
            protocol.write(address, payload(address))
        owners = [protocol.locate(address) for address in range(200)]
        counts = [owners.count(index) for index in range(4)]
        assert min(counts) > 20  # roughly uniform

    def test_access_goes_to_owner(self):
        protocol, tracer = traced_protocol()
        protocol.write(1, payload(1))
        owner_before = protocol.locate(1)
        since = len(tracer.events)
        protocol.read(1)
        access_events = sent(tracer, protocol, SdimmCommand.ACCESS, since)
        assert len(access_events) == 1
        assert access_events[0].args["sdimm"] == owner_before

    def test_drains_happen_under_migration_load(self):
        protocol = make_protocol(levels=8, sdimms=2, p=0.5, seed=7)
        for address in range(150):
            protocol.write(address % 40, payload(address))
        assert protocol.total_drain_accesses > 0

    def test_queue_stays_small_with_drain(self):
        protocol = make_protocol(levels=8, sdimms=2, p=0.3, seed=11)
        for address in range(300):
            protocol.write(address % 50, payload(address))
        for sdimm in protocol.sdimms:
            assert sdimm.queue.peak_occupancy < 32


class TestObliviousness:
    def _shapes(self, operations, seed=2018):
        protocol, tracer = traced_protocol(levels=8, sdimms=2, seed=seed,
                                           p=0.0)
        for address, op, value in operations:
            if op is Op.WRITE:
                protocol.access(address, op, payload(value))
            else:
                protocol.access(address, op)
        return link_shapes(tracer.events, protocol.link.lane)

    def test_link_shape_independent_of_addresses(self):
        hot = [(1, Op.READ, 0)] * 15
        scan = [(address, Op.READ, 0) for address in range(15)]
        assert self._shapes(hot) == self._shapes(scan)

    def test_link_shape_independent_of_operation(self):
        reads = [(index, Op.READ, 0) for index in range(15)]
        writes = [(index, Op.WRITE, index) for index in range(15)]
        assert self._shapes(reads) == self._shapes(writes)

    def test_append_broadcast_to_every_sdimm(self):
        """Step 6: every access APPENDs to all SDIMMs, dummies included."""
        protocol, tracer = traced_protocol(sdimms=4, p=0.0)
        protocol.read(3)
        appends = sent(tracer, protocol, SdimmCommand.APPEND)
        assert sorted(event.args["sdimm"] for event in appends) == \
            [0, 1, 2, 3]

    def test_access_always_carries_block(self):
        """ACCESS is always followed by one block of data, even for reads,
        so the operation type is hidden."""
        protocol, tracer = traced_protocol()
        protocol.read(3)
        access = sent(tracer, protocol, SdimmCommand.ACCESS)[0]
        assert access.args["payload_bytes"] == 16

    def test_local_bus_trace_is_paths(self):
        """Each SDIMM's internal bus carries whole-path reads/writes only."""
        protocol = IndependentProtocol(
            global_levels=8, sdimm_count=2, block_bytes=16,
            stash_capacity=200, drain_probability=0.0, seed=1,
            record_trace=True)
        protocol.read(3)
        touched = [sdimm for sdimm in protocol.sdimms
                   if sdimm.oram.trace]
        assert len(touched) == 1
        local_levels = touched[0].oram.geometry.levels
        kinds = [event.kind for event in touched[0].oram.trace]
        assert kinds == ["read"] * local_levels + ["write"] * local_levels
