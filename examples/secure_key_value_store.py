#!/usr/bin/env python
"""An oblivious in-memory key-value store over the Split protocol.

The paper motivates SDIMMs with in-memory databases (Oracle TimesTen, SAP
HANA): high capacity AND hidden access patterns.  This example builds a
small KV store whose *values* and *access pattern* are both protected —
an adversary watching the (simulated) buses learns only how many
operations ran.

Keys hash to block addresses, and two distinct keys can land on the same
slot (at 4096 slots the birthday bound makes a collision near-certain by
~75 keys).  Every block therefore carries an 8-byte key fingerprint in
its prefix: an operation that touches a slot owned by a *different* key
raises :class:`KeyCollisionError` instead of silently serving or
destroying the wrong record.

Run:  python examples/secure_key_value_store.py
"""

import hashlib

from repro import SplitProtocol
from repro.oram.path_oram import Op

BLOCK_BYTES = 64
#: bytes of key fingerprint stored in the block prefix
FINGERPRINT_BYTES = 8
#: value bytes per block after the fingerprint and 2-byte length prefix
VALUE_BYTES = BLOCK_BYTES - FINGERPRINT_BYTES - 2

#: an all-zero prefix marks a never-written slot
_EMPTY_FINGERPRINT = bytes(FINGERPRINT_BYTES)


class KeyCollisionError(Exception):
    """Two distinct keys hash to the same slot; the record is not served.

    Carries both the requested key and the slot so callers can rehash or
    resize instead of silently reading/overwriting the other key's data.
    """

    def __init__(self, key: str, slot: int):
        super().__init__(f"key {key!r} collides with another key "
                         f"at slot {slot}")
        self.key = key
        self.slot = slot


class ObliviousKvStore:
    """A fixed-capacity KV store with oblivious gets and puts.

    Keys hash to block addresses (open addressing is avoided by keeping
    the table sparse); every operation is exactly one ORAM access, so gets
    and puts are indistinguishable on the wire.  Slot collisions are
    *detected*, never silent: each block's prefix stores a fingerprint of
    the owning key, checked on every operation.
    """

    def __init__(self, capacity_blocks: int = 4096, ways: int = 2):
        levels = max(2, capacity_blocks.bit_length())
        self._oram = SplitProtocol(levels=levels, ways=ways,
                                   block_bytes=BLOCK_BYTES,
                                   stash_capacity=256)
        self._capacity = capacity_blocks

    def _slot(self, key: str) -> int:
        digest = hashlib.sha256(key.encode()).digest()
        return int.from_bytes(digest[:8], "little") % self._capacity

    def _fingerprint(self, key: str) -> bytes:
        """8 bytes identifying the key, never equal to the empty marker.

        Drawn from a different region of the digest than :meth:`_slot`, so
        two keys sharing a slot still (overwhelmingly) differ here.
        """
        digest = hashlib.sha256(key.encode()).digest()
        fingerprint = digest[8:8 + FINGERPRINT_BYTES]
        if fingerprint == _EMPTY_FINGERPRINT:
            fingerprint = b"\x01" * FINGERPRINT_BYTES
        return fingerprint

    def put(self, key: str, value: str) -> None:
        """Store one record: still exactly one ORAM access.

        The Split protocol's WRITE returns the block's *previous*
        contents, so the collision check costs no extra access: a prior
        record with a different fingerprint raises
        :class:`KeyCollisionError`.
        """
        encoded = value.encode()
        if len(encoded) > VALUE_BYTES:
            raise ValueError(f"value exceeds {VALUE_BYTES} bytes")
        fingerprint = self._fingerprint(key)
        block = (fingerprint +
                 len(encoded).to_bytes(2, "little") +
                 encoded.ljust(VALUE_BYTES, b"\0"))
        slot = self._slot(key)
        previous = self._oram.access(slot, Op.WRITE, block)
        stored = previous[:FINGERPRINT_BYTES]
        if stored not in (_EMPTY_FINGERPRINT, fingerprint):
            raise KeyCollisionError(key, slot)

    def get(self, key: str) -> str:
        slot = self._slot(key)
        block = self._oram.access(slot, Op.READ)
        stored = block[:FINGERPRINT_BYTES]
        if stored == _EMPTY_FINGERPRINT:
            raise KeyError(key)
        if stored != self._fingerprint(key):
            raise KeyCollisionError(key, slot)
        offset = FINGERPRINT_BYTES
        length = int.from_bytes(block[offset:offset + 2], "little")
        return block[offset + 2:offset + 2 + length].decode()

    @property
    def link_messages(self) -> int:
        return len(self._oram.link)


def main() -> None:
    store = ObliviousKvStore()

    print("Loading patient records into the oblivious store...")
    records = {
        "patient:1001": "diagnosis=hypertension;medication=lisinopril",
        "patient:1002": "diagnosis=diabetes-t2;medication=metformin",
        "patient:1003": "diagnosis=asthma;medication=albuterol",
        "patient:1004": "diagnosis=migraine;medication=sumatriptan",
    }
    for key, value in records.items():
        store.put(key, value)

    print("A 'hot' query pattern (same record, repeatedly):")
    for _ in range(3):
        value = store.get("patient:1002")
    print(f"  patient:1002 -> {value}")

    print("A scan pattern (every record once):")
    for key in records:
        store.get(key)

    messages = store.link_messages
    operations = len(records) + 3 + len(records)
    print(f"\nAdversary's view: {messages} protocol messages for "
          f"{operations} operations")
    print(f"  -> exactly {messages // operations} messages per operation, "
          f"regardless of key, value, or read/write.")
    print("  The hot query and the scan are indistinguishable on the bus.")

    assert store.get("patient:1003").startswith("diagnosis=asthma")
    assert messages % operations == 0
    try:
        store.get("patient:9999")
    except KeyError:
        print("Missing keys raise KeyError; colliding keys raise "
              "KeyCollisionError — never the wrong record.")
    print("\nAll records verified. Access pattern leaked: nothing.")


if __name__ == "__main__":
    main()
