"""Functional tests for the combined INDEP-SPLIT protocol (Figure 7e)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.commands import SdimmCommand
from repro.core.indep_split import IndepSplitProtocol
from repro.obs.audit import link_instants, link_shapes
from repro.obs.tracer import CollectingTracer
from repro.oram.path_oram import Op


def make_protocol(levels=8, groups=2, ways=2, seed=2018, p=0.1, **kwargs):
    return IndepSplitProtocol(
        global_levels=levels, groups=groups, ways=ways, block_bytes=16,
        stash_capacity=200, drain_probability=p, seed=seed, **kwargs)


def traced_protocol(**kwargs):
    """A protocol whose link messages land in a fresh tracer."""
    tracer = CollectingTracer()
    return make_protocol(tracer=tracer, **kwargs), tracer


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

    def test_survives_group_migrations(self):
        protocol = make_protocol(seed=3)
        protocol.write(77, payload(1))
        for round_number in range(2, 50):
            assert protocol.read(77) == payload(round_number - 1)
            protocol.write(77, payload(round_number))

    def test_many_blocks(self):
        protocol = make_protocol(levels=9)
        for address in range(50):
            protocol.write(address, payload(address + 300))
        for address in range(50):
            assert protocol.read(address) == payload(address + 300)

    @settings(max_examples=8, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 255)),
                    min_size=1, max_size=30))
    def test_matches_reference_dict(self, operations):
        protocol = make_protocol(levels=7, p=0.2)
        reference = {}
        for address, value in operations:
            protocol.write(address, payload(value))
            reference[address] = payload(value)
        for address, expected in reference.items():
            assert protocol.read(address) == expected

    def test_write_requires_data(self):
        with pytest.raises(ValueError):
            make_protocol().access(1, Op.WRITE)


class TestStructure:
    def test_groups_are_split_instances(self):
        protocol = make_protocol(groups=2, ways=2)
        for group in protocol.groups:
            assert len(group.split.buffers) == 2

    def test_group_tree_is_half_depth(self):
        protocol = make_protocol(levels=8, groups=2)
        assert protocol.groups[0].split.geometry.levels == 7

    def test_stash_alignment_holds_under_churn(self):
        protocol = make_protocol(seed=7, p=0.3)
        for address in range(120):
            protocol.write(address % 30, payload(address))
            for group in protocol.groups:
                assert group.split.stashes_aligned()

    def test_drain_accesses_occur(self):
        protocol = make_protocol(seed=7, p=0.5)
        for address in range(200):
            protocol.write(address % 40, payload(address))
        drains = sum(group.queue.drain_services
                     for group in protocol.groups)
        assert drains > 0


class TestObliviousness:
    def _shapes(self, operations, seed=2018):
        protocol, tracer = traced_protocol(seed=seed, p=0.0)
        for address, op, value in operations:
            if op is Op.WRITE:
                protocol.access(address, op, payload(value))
            else:
                protocol.access(address, op)
        return link_shapes(tracer.events, protocol.link.lane)

    def test_link_shape_independent_of_addresses(self):
        hot = [(1, Op.READ, 0)] * 10
        scan = [(address, Op.READ, 0) for address in range(10)]
        assert self._shapes(hot) == self._shapes(scan)

    def test_link_shape_independent_of_operation(self):
        reads = [(index, Op.READ, 0) for index in range(10)]
        writes = [(index, Op.WRITE, index) for index in range(10)]
        assert self._shapes(reads) == self._shapes(writes)

    def test_append_broadcast_to_every_group(self):
        protocol, tracer = traced_protocol(p=0.0)
        protocol.read(3)
        appends = [event for event
                   in link_instants(tracer.events, protocol.link.lane)
                   if event.name == SdimmCommand.APPEND.value]
        assert sorted(event.args["sdimm"] for event in appends) == [0, 1]
