#!/usr/bin/env python
"""Quickstart: Path ORAM, encrypted storage, and a first SDIMM protocol.

Run:  python examples/quickstart.py
"""

from repro import DeterministicRng, IndependentProtocol, Op, PathOram
from repro.obs.audit import adversary_observations, link_instants
from repro.obs.tracer import CollectingTracer
from repro.oram.integrity import EncryptedBucketStore


def pad(text: str) -> bytes:
    return text.encode().ljust(64, b"\0")


def main() -> None:
    print("=== 1. A plain Path ORAM " + "=" * 40)
    rng = DeterministicRng(2018, "quickstart")
    bus = CollectingTracer()
    oram = PathOram(levels=10, blocks_per_bucket=4, block_bytes=64,
                    stash_capacity=200, rng=rng, tracer=bus)

    oram.access(7, Op.WRITE, pad("the secret launch codes"))
    oram.access(8, Op.WRITE, pad("a decoy grocery list"))
    data = oram.access(7, Op.READ)
    print(f"  block 7 reads back: {data.rstrip(bytes(1)).decode()!r}")
    print(f"  accesses so far: {oram.access_count}, "
          f"stash holds {len(oram.stash)} blocks")

    # what the bus saw: whole paths, root first, for every access
    per_access = 2 * oram.geometry.levels
    touches = adversary_observations(bus.events)
    first = [event.args["bucket"]
             for event in touches[:oram.geometry.levels]]
    print(f"  every access touches {per_access} buckets "
          f"(read+write one full path)")
    print(f"  first path: buckets {first}")

    print()
    print("=== 2. Encryption + PMMAC integrity " + "=" * 29)
    store = EncryptedBucketStore(bucket_count=(1 << 10) - 1,
                                 bucket_capacity=4, block_bytes=64,
                                 key=b"a 128-bit secret")
    secure = PathOram(levels=10, blocks_per_bucket=4, block_bytes=64,
                      stash_capacity=200,
                      rng=DeterministicRng(2018, "enc"), store=store)
    secure.access(1, Op.WRITE, pad("only ciphertext leaves the chip"))
    ciphertext, tag = store.snapshot(0)  # the root bucket, as DRAM sees it
    print(f"  root bucket in DRAM: {len(ciphertext)} ciphertext bytes, "
          f"8-byte MAC {tag.hex()}")
    print(f"  plaintext visible in DRAM? "
          f"{b'ciphertext' in ciphertext}")

    print()
    print("=== 3. The Independent SDIMM protocol " + "=" * 27)
    tracer = CollectingTracer()
    protocol = IndependentProtocol(global_levels=10, sdimm_count=4,
                                   block_bytes=64, stash_capacity=200,
                                   tracer=tracer)
    protocol.write(42, pad("distributed across subtrees"))
    for _ in range(5):
        protocol.read(42)
    print(f"  block 42 now lives on SDIMM {protocol.locate(42)} "
          f"(it migrates on every access)")
    appends = sum(1 for event in link_instants(tracer.events,
                                               protocol.link.lane)
                  if event.name == "APPEND")
    print(f"  {len(protocol.link)} link messages so far; "
          f"{appends} APPENDs (one per SDIMM per access, mostly dummies)")
    print(f"  final read: "
          f"{protocol.read(42).rstrip(bytes(1)).decode()!r}")


if __name__ == "__main__":
    main()
