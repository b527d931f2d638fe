"""State-digest pins for the plain Split protocol.

A fixed 400-operation mixed stream (reads, writes and dummy accesses)
runs through a 5-level, 2-way Split tree with two 16-byte blocks per
bucket, full enough that blocks wait in the stash.  The sha256 covers
every read result, the shadow after every operation, and everything the
protocol holds afterwards: each way's store cells (counter slice,
ciphertext, MAC) and its stash in order, the CPU's shadow (address,
leaf), its trusted counter chain, the position map and the link events.  The serve and
campaign pins see only aggregates of these bytes; this pin sees the
bytes themselves, so a write-back that places a block in another slot,
keeps a stash entry in another order or ships another counter slice
changes it.

A deliberate change to the eviction plan, the RNG streams or the cell
layout must update the digests and say so.
"""

import pytest

from repro.core.split import SplitProtocol
from repro.obs.audit import link_instants
from repro.obs.tracer import CollectingTracer
from repro.utils.canonical import canonical_digest
from repro.utils.rng import DeterministicRng

LEVELS, WAYS, BLOCKS_PER_BUCKET, BLOCK_BYTES = 5, 2, 2, 16
OPERATIONS, ADDRESSES = 400, 48


def _run(seed):
    """Drive the stream; returns (protocol, read results, shadow trail,
    dummy count)."""
    protocol = SplitProtocol(levels=LEVELS, ways=WAYS,
                             blocks_per_bucket=BLOCKS_PER_BUCKET,
                             block_bytes=BLOCK_BYTES, seed=seed,
                             tracer=CollectingTracer())
    stream = DeterministicRng(seed, "split-pin-stream")
    results, trail, dummies = [], [], 0
    for _ in range(OPERATIONS):
        address = stream.randrange(ADDRESSES)
        draw = stream.random()
        if draw < 0.1:
            protocol.dummy_access()
            dummies += 1
        elif draw < 0.55:
            protocol.write(address, stream.random_bytes(BLOCK_BYTES))
        else:
            results.append(protocol.read(address).hex())
        trail.append(_shadow(protocol))
    return protocol, results, trail, dummies


def _shadow(protocol):
    return [[entry.address, entry.leaf] for entry in protocol.shadow]


def _state(protocol, results, trail):
    return {
        "results": results,
        "trail": trail,
        "shadow": _shadow(protocol),
        "expected_counters": sorted(protocol._expected_counters.items()),
        "posmap": sorted(protocol.posmap._positions.items()),
        "ways": [{
            "stash": [part.hex() for part in buffer.stash],
            "cells": [[bucket, cell.counter_slice, cell.ciphertext.hex(),
                       cell.mac.hex()]
                      for bucket, cell in sorted(buffer._store.items())],
            "counters": [buffer.writes, buffer.local_line_transfers],
        } for buffer in protocol.buffers],
        "link": [[event.args["direction"],
                  None if event.name == "data" else event.name,
                  event.args["sdimm"], event.args["payload_bytes"]]
                 for event in link_instants(protocol.tracer.events,
                                            protocol.link.lane)],
        "counters": [protocol.accesses, protocol.stash_peak],
    }


PINS = {
    1: ("7c85ef51570130aab843f2c0b00eac12"
        "fb26ac32be86fafac599fe0a789e0b3a"),
    2: ("9d36466960b60ff040a602c721baac4d"
        "f1db9cee7692eb2dd67cefe72db98e72"),
    3: ("83e25d33bc764f5d18429b0c1fd552d6"
        "c437b18bdc8d51ad04568be4dc0290a9"),
}


@pytest.mark.parametrize("seed", sorted(PINS))
def test_split_state_bytes_are_pinned(seed):
    protocol, results, trail, dummies = _run(seed)
    # the stream must keep blocks waiting in the stash and run dummy
    # accesses, so the pin covers stash order and the dummy path
    assert dummies > 0
    assert protocol.stash_peak > 1
    assert protocol.stashes_aligned()
    assert canonical_digest(_state(protocol, results, trail)) == PINS[seed]
