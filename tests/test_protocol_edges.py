"""Targeted edge-path tests for the SDIMM protocol machinery.

These force the rare paths the broad stateful tests hit only by chance:
accessing a block while it waits in a transfer queue, appends to wrong
owners, queue overflow propagation, and vacancy servicing.  Every case
runs on both kinds of partition site: an Independent SDIMM and an
INDEP-SPLIT group.
"""

import pytest

from repro.core.designs import build_protocol
from repro.core.indep_split import SplitGroup
from repro.core.independent import IndependentBuffer
from repro.core.transfer_queue import TransferQueueOverflow
from repro.oram.bucket import Block
from repro.oram.path_oram import Op
from repro.utils.rng import DeterministicRng

COMMON = dict(sites=2, global_levels=7, blocks_per_bucket=4, block_bytes=16,
              stash_capacity=200)


def make_buffer(site_id=0, queue_capacity=8, p=0.0):
    return IndependentBuffer(
        site_id=site_id, transfer_queue_capacity=queue_capacity,
        drain_probability=p, rng=DeterministicRng(13, f"edge{site_id}"),
        **COMMON)


def make_group(site_id=0, queue_capacity=8, p=0.0):
    return SplitGroup(
        site_id=site_id, ways=2, transfer_queue_capacity=queue_capacity,
        drain_probability=p, rng=DeterministicRng(17, "group-edge"),
        key=b"edge-key-16byte!", **COMMON)


def owned_leaf(site, local=0):
    """A global leaf owned by this site."""
    return (site.site_id << site._local_leaf_bits) | local


class PartitionSiteEdges:
    """The edge cases every partition site must pass.

    A subclass names the site kind: ``make`` builds one site,
    ``engine_accesses`` counts its engine's real and dummy accesses, and
    ``aligned`` checks the engine's own stash invariant.
    """

    @staticmethod
    def aligned(site):
        return True

    def test_access_block_waiting_in_queue(self):
        """A block can be accessed while still in the transfer queue."""
        site = self.make()
        leaf = owned_leaf(site, 3)
        site.append(Block(99, leaf, b"Q" * 16))
        assert 99 in site.queue
        outcome = site.access(99, leaf, Op.READ, None)
        assert outcome.data == b"Q" * 16
        assert 99 not in site.queue
        assert self.aligned(site)

    def test_wrong_owner_leaf_rejected(self):
        site = self.make(site_id=0)
        foreign_leaf = owned_leaf(self.make(site_id=1), 0)
        with pytest.raises(ValueError):
            site.access(1, foreign_leaf, Op.READ, None)

    def test_dummy_append_is_free(self):
        site = self.make()
        before = self.engine_accesses(site)
        assert site.append(None) == 0
        assert len(site.queue) == 0
        assert site.queue.arrivals == 0
        assert self.engine_accesses(site) == before

    def test_queue_overflow_propagates(self):
        site = self.make(queue_capacity=2, p=0.0)
        leaf = owned_leaf(site)
        site.append(Block(1, leaf, bytes(16)))
        site.append(Block(2, leaf, bytes(16)))
        with pytest.raises(TransferQueueOverflow):
            site.append(Block(3, leaf, bytes(16)))

    def test_departure_services_queue(self):
        """When a block migrates away, a queued block fills the vacancy."""
        site = self.make()
        leaf = owned_leaf(site, 5)
        site.append(Block(50, leaf, b"W" * 16))
        # access blocks repeatedly until one draws a foreign new leaf
        for address in range(40):
            outcome = site.access(address, owned_leaf(site, address % 4),
                                  Op.WRITE, bytes(16))
            if outcome.moved_block is not None:
                break
        assert outcome.moved_block is not None
        assert site.queue.vacancy_services == 1
        assert 50 not in site.queue
        assert self.aligned(site)
        # the serviced block now lives in the site at its leaf
        assert site.access(50, leaf, Op.READ, None).data == b"W" * 16

    def test_drain_spends_dummy_access(self):
        site = self.make(p=1.0)
        before = self.engine_accesses(site)
        leaf = owned_leaf(site, 0)
        drains = site.append(Block(7, leaf, b"D" * 16))
        assert drains == 1
        assert self.engine_accesses(site) == before + 1
        assert self.aligned(site)
        # the drained block left the queue and is retrievable at its leaf
        assert 7 not in site.queue
        outcome = site.access(7, leaf, Op.READ, None)
        assert outcome.data == b"D" * 16

    def test_write_requires_full_payload(self):
        site = self.make()
        for data in (b"short", None):
            with pytest.raises(ValueError):
                site.access(1, owned_leaf(site), Op.WRITE, data)
        assert site.accesses == 0
        assert self.engine_accesses(site) == 0

    def test_holds_reports_queue_and_stash(self):
        site = self.make()
        leaf = owned_leaf(site, 1)
        assert not site.holds(5)
        site.append(Block(5, leaf, bytes(16)))
        assert site.holds(5)


class TestIndependentBufferEdges(PartitionSiteEdges):
    make = staticmethod(make_buffer)

    @staticmethod
    def engine_accesses(site):
        return site.oram.access_count


class TestSplitGroupEdges(PartitionSiteEdges):
    make = staticmethod(make_group)

    @staticmethod
    def engine_accesses(site):
        return site.split.accesses

    @staticmethod
    def aligned(site):
        return site.split.stashes_aligned()


@pytest.mark.parametrize("design", ["independent", "indep-split"])
@pytest.mark.parametrize("data", [b"short", None])
def test_rejected_write_reaches_no_link_and_no_site(design, data):
    """A write without a full payload fails before ACCESS is recorded."""
    protocol = build_protocol(design, levels=7, sites=2, block_bytes=16)
    for address in range(8):
        protocol.write(address, bytes([address]) * 16)

    def snapshot():
        return (len(protocol.link), protocol.accesses,
                [(site.accesses, site.queue.counters_dict())
                 for site in protocol.sites])

    before = snapshot()
    with pytest.raises(ValueError, match="full-size payload"):
        protocol.access(3, Op.WRITE, data)
    assert snapshot() == before
    assert protocol.read(3) == bytes([3]) * 16
