"""State-digest pins for the partition sites (Independent and INDEP-SPLIT).

A fixed 400-operation mixed read/write stream runs through a 2-site,
7-level protocol with 16-byte blocks.  The sha256 covers every read
result and everything the sites hold afterwards: each site's stash, its
store cells, its transfer-queue blocks and counters, the split shadow
and way slices, and the link shapes.  The report, serve and campaign
pins see only aggregates of these bytes; this pin sees the bytes
themselves, so moving a step of the migration policy (say, servicing
a vacancy after the write-back instead of before it) changes it.

A deliberate change to the policy, the RNG streams or the store layout
must update the digests and say so.
"""

from functools import partial

import pytest

from repro.core.indep_split import IndepSplitProtocol
from repro.core.independent import IndependentProtocol
from repro.obs.audit import link_instants
from repro.obs.tracer import CollectingTracer
from repro.utils.canonical import canonical_digest
from repro.utils.rng import DeterministicRng

LEVELS, SITES, BLOCK_BYTES = 7, 2, 16
OPERATIONS, ADDRESSES = 400, 48


def _build(design, seed, tracer):
    common = dict(global_levels=LEVELS, block_bytes=BLOCK_BYTES, seed=seed,
                  tracer=tracer)
    if design == "indep-split":
        return IndepSplitProtocol(groups=SITES, **common)
    key = b"site-pin-key-16b" if design == "independent-encrypted" else None
    return IndependentProtocol(sdimm_count=SITES, encryption_key=key,
                               **common)


def _run(design, seed):
    """Drive the stream; returns (protocol, tracer, read results, queue
    pulls)."""
    tracer = CollectingTracer()
    protocol = _build(design, seed, tracer)
    stream = DeterministicRng(seed, "site-pin-stream")
    seen, results, pulls = set(), [], 0
    for _ in range(OPERATIONS):
        address = stream.randrange(ADDRESSES)
        # only a block accessed before can wait in a transfer queue; a
        # fresh address is not looked up early, so no posmap draw moves
        if address in seen and \
                address in protocol.sites[protocol.locate(address)].queue:
            pulls += 1
        seen.add(address)
        if stream.random() < 0.5:
            protocol.write(address, stream.random_bytes(BLOCK_BYTES))
        else:
            results.append(protocol.read(address).hex())
    return protocol, tracer, results, pulls


def _block(block):
    return [block.address, block.leaf, block.data.hex()]


def _queue(queue):
    return {"blocks": [_block(block) for block in queue.blocks()],
            "counters": queue.counters_dict()}


def _links(tracer, link):
    return [[event.args["direction"],
             None if event.name == "data" else event.name,
             event.args["sdimm"], event.args["payload_bytes"]]
            for event in link_instants(tracer.events, link.lane)]


def _path_oram_store(store):
    if hasattr(store, "_cells"):
        cells = [[index, ciphertext.hex(), tag.hex()] for index,
                 (ciphertext, tag) in sorted(store._cells.items())]
        counters = sorted(store._expected_counters.items())
    else:
        cells = [[index, bucket.serialize().hex()]
                 for index, bucket in sorted(store._buckets.items())]
        counters = sorted(store._counters.items())
    return {"cells": cells, "counters": counters,
            "reads": store.reads, "writes": store.writes}


def _independent_site(tracer, site):
    oram = site.oram
    return {
        "stash": [_block(oram.stash.get(address))
                  for address in oram.stash.addresses()],
        "store": _path_oram_store(oram.store),
        "queue": _queue(site.queue),
        "counters": [site.accesses, oram.access_count,
                     oram.dummy_access_count, oram.background_evictions,
                     oram.stash.peak_occupancy],
    }


def _split_site(tracer, site):
    split = site.split
    return {
        "shadow": [[entry.address, entry.leaf] for entry in split.shadow],
        "posmap": sorted(split.posmap._positions.items()),
        "expected_counters": sorted(split._expected_counters.items()),
        "ways": [{
            "slices": [None if part is None else part.hex()
                       for part in buffer.stash],
            "cells": [[bucket, cell.counter_slice, cell.ciphertext.hex(),
                       cell.mac.hex()]
                      for bucket, cell in sorted(buffer._store.items())],
            "counters": [buffer.writes, buffer.local_line_transfers],
        } for buffer in split.buffers],
        "link": _links(tracer, split.link),
        "queue": _queue(site.queue),
        "counters": [site.accesses, split.accesses, split.stash_peak],
    }


def _state(design, seed):
    protocol, tracer, results, pulls = _run(design, seed)
    describe = partial(_split_site if design == "indep-split" else
                       _independent_site, tracer)
    return protocol, pulls, {
        "results": results,
        "sites": [describe(site) for site in protocol.sites],
        "link": _links(tracer, protocol.link),
    }


PINS = {
    ("independent", 1): ("2d1801bcc3b3bafaf5e150aa33fffc14"
                         "5b15b968ffae23f4039a3548b1280ef6"),
    ("independent", 2): ("ac53443bb50d50e5ca4d833cb71a2f87"
                         "66450fa132ad54da200cfeab7ec11cdd"),
    ("independent", 3): ("f501dc97c6d7ccf23d5abf4801e9b91f"
                         "62165f1a5d7232da271464d32e8fc48c"),
    ("independent-encrypted", 1): ("810fe8fdebfb0920485c8028c097d7a7"
                                   "36f04d0742bf5316021537bc652d81d0"),
    ("independent-encrypted", 2): ("3002d147eec8bdcea2f1fed81d305073"
                                   "fa16d703c94472bebdcec6d357121141"),
    ("independent-encrypted", 3): ("9298eabe8144176ca7be587343c5353d"
                                   "628e562d4f3b2e351a018cc833d4f2db"),
    ("indep-split", 1): ("bef9947cd3584208a22b648b8278eb6b"
                         "effd706029384c9791a1c30f49190031"),
    ("indep-split", 2): ("e009d35fa7fe3c73d3cbffc0ef8ac125"
                         "9167e22354c32dfa9cad7d065e98143c"),
    ("indep-split", 3): ("2c113c3e46448389d2d46a78cea5c6a2"
                         "27b45e5abd983323e971a844651b5151"),
}


@pytest.mark.parametrize("design,seed", sorted(PINS),
                         ids=[f"{design}-{seed}"
                              for design, seed in sorted(PINS)])
def test_site_state_bytes_are_pinned(design, seed):
    protocol, pulls, state = _state(design, seed)
    queues = [site.queue for site in protocol.sites]
    # the stream must exercise every queue path the pin guards
    assert pulls > 0
    assert sum(queue.vacancy_services for queue in queues) > 0
    assert sum(queue.drain_services for queue in queues) > 0
    assert canonical_digest(state) == PINS[(design, seed)]
