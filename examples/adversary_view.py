#!/usr/bin/env python
"""The threat model, demonstrated: what a bus-probing adversary gets.

Section II-B's attacker has a logic analyzer on the DIMM: they see every
address and every (encrypted) byte between the secure buffer and the DRAM
chips, and can actively tamper.  This example shows each defence doing its
job:

1. confidentiality — DRAM holds only ciphertext;
2. integrity      — tampering and replay raise immediately (PMMAC);
3. obliviousness  — two very different programs produce link traffic of
                    identical shape.

Run:  python examples/adversary_view.py
"""

from repro import DeterministicRng, Op, PathOram, SplitProtocol
from repro.core.split import SplitIntegrityError
from repro.obs.audit import link_shapes
from repro.obs.tracer import CollectingTracer
from repro.oram.integrity import EncryptedBucketStore, IntegrityError


def confidentiality() -> None:
    print("1. Confidentiality " + "-" * 50)
    store = EncryptedBucketStore(bucket_count=127, bucket_capacity=4,
                                 block_bytes=64, key=b"secret key bytes")
    oram = PathOram(levels=7, blocks_per_bucket=4, block_bytes=64,
                    stash_capacity=200, rng=DeterministicRng(1, "conf"),
                    store=store)
    secret = b"ATTACK AT DAWN".ljust(64, b"\0")
    oram.access(5, Op.WRITE, secret)

    leaked = False
    for bucket in range(127):
        cell = store.snapshot(bucket)
        if cell and b"ATTACK" in cell[0]:
            leaked = True
    print(f"   plaintext found anywhere in DRAM: {leaked}")
    assert not leaked

    first, _ = store.snapshot(0)
    oram.access(5, Op.READ)  # rewrites the path with fresh pads
    second, _ = store.snapshot(0)
    print(f"   root bucket ciphertext changed after a *read*: "
          f"{first != second}  (counter-mode re-encryption)\n")


def integrity() -> None:
    print("2. Integrity (PMMAC) " + "-" * 48)
    store = EncryptedBucketStore(bucket_count=127, bucket_capacity=4,
                                 block_bytes=64, key=b"secret key bytes")
    oram = PathOram(levels=7, blocks_per_bucket=4, block_bytes=64,
                    stash_capacity=200, rng=DeterministicRng(2, "int"),
                    store=store)
    oram.access(5, Op.WRITE, b"v1".ljust(64, b"\0"))

    stale = store.snapshot(0)          # adversary records the root...
    oram.access(5, Op.WRITE, b"v2".ljust(64, b"\0"))
    store.replay(0, stale)             # ...and replays it later
    try:
        oram.access(5, Op.READ)
        print("   replay went UNDETECTED (bug!)")
    except IntegrityError as error:
        print(f"   replay detected: {error}")

    protocol = SplitProtocol(levels=7, ways=2, block_bytes=64,
                             stash_capacity=200, seed=3)
    protocol.write(1, b"x".ljust(64, b"\0"))
    victim = protocol.buffers[0]
    victim.tamper_bucket(next(iter(victim._store)))
    try:
        for _ in range(200):
            protocol.read(1)
        print("   slice tampering went UNDETECTED (bug!)")
    except SplitIntegrityError:
        print("   tampered Split slice detected by its per-SDIMM MAC\n")


def obliviousness() -> None:
    print("3. Obliviousness " + "-" * 52)

    def run(program):
        tracer = CollectingTracer()
        protocol = SplitProtocol(levels=8, ways=2, block_bytes=64,
                                 stash_capacity=200, seed=4, tracer=tracer)
        program(protocol)
        return link_shapes(tracer.events, protocol.link.lane)

    def hot_loop(protocol):
        for _ in range(20):
            protocol.read(7)                       # one hot secret

    def scan(protocol):
        for address in range(10):
            protocol.write(address, bytes(64))     # bulk initialization
        for address in range(10):
            protocol.read(address)

    hot_shape = run(hot_loop)
    scan_shape = run(scan)
    print(f"   hot-loop link trace:  {len(hot_shape)} messages")
    print(f"   scan link trace:      {len(scan_shape)} messages")
    print(f"   traces identical in (direction, command, size): "
          f"{hot_shape == scan_shape}")
    assert hot_shape == scan_shape
    print("   -> the adversary cannot tell 20 reads of one secret from "
          "a 20-op bulk scan.")


def main() -> None:
    confidentiality()
    integrity()
    obliviousness()


if __name__ == "__main__":
    main()
