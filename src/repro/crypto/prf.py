"""A keyed pseudo-random function over SHAKE-256.

Stands in for the AES block cipher: deterministic under a key, unpredictable
without it, and fast enough for functional simulation.  All higher-level
constructions (counter-mode pads, MACs, key derivation) are built on this.
"""

from __future__ import annotations

import hashlib


class Prf:
    """Keyed PRF producing arbitrary-length outputs.

    Output for input ``message`` is ``SHAKE-256(len(key) || key ||
    message)`` squeezed to the requested length, ``len(key)`` being four
    little-endian bytes.  The length prefix keeps ``(key, message)`` pairs
    unambiguous, so ``key + b"x"`` and ``b"x" + message`` never collide.
    Being an XOF, a shorter output is always a prefix of a longer one for
    the same message, which the counter-mode pad cache relies on.
    """

    DIGEST_BYTES = 32

    def __init__(self, key: bytes):
        if len(key) < 16:
            raise ValueError("PRF key must be at least 128 bits")
        # The keyed state is the same for every evaluation; absorb it
        # once and fork copies per message.
        self._template = hashlib.shake_256(len(key).to_bytes(4, "little") +
                                           key)

    def evaluate(self, message: bytes, length: int = DIGEST_BYTES) -> bytes:
        """Return ``length`` pseudo-random bytes for ``message``."""
        if length < 0:
            raise ValueError("length must be non-negative")
        xof = self._template.copy()
        xof.update(message)
        return xof.digest(length)

    def derive_key(self, label: str) -> bytes:
        """Derive an independent sub-key for a named purpose."""
        return self.evaluate(b"derive:" + label.encode(), self.DIGEST_BYTES)

    def evaluate_int(self, message: bytes, bits: int = 64) -> int:
        """Return a pseudo-random ``bits``-wide integer for ``message``."""
        raw = self.evaluate(message, (bits + 7) // 8)
        return int.from_bytes(raw, "little") & ((1 << bits) - 1)
