"""Message authentication: link MACs and PMMAC bucket integrity.

PMMAC (from Freecursive ORAM) authenticates each bucket with a MAC over its
data and a per-bucket write counter; replays are detected because the
expected counter is reconstructed from the position map side.  The Split
protocol slices buckets across SDIMMs and each slice carries *its own* MAC
over its own half-counter and half-data — the n-way MAC overhead the paper
calls out.
"""

from __future__ import annotations

import hmac
import struct

from repro.crypto.prf import Prf

#: A bucket index and a write counter, 8 little-endian bytes each.
_INDEX_COUNTER = struct.Struct("<QQ")


class MacError(Exception):
    """Raised when a MAC verification fails (tampering or replay)."""


class MacEngine:
    """Keyed MAC with truncated tags, for link messages."""

    TAG_BYTES = 8

    def __init__(self, key: bytes):
        self._prf = Prf(key)

    def tag(self, message: bytes) -> bytes:
        return self._prf.evaluate(b"mac:" + message, self.TAG_BYTES)

    def verify(self, message: bytes, tag: bytes) -> None:
        # Constant-time: == short-circuits at the first differing byte,
        # handing a bus-level adversary a byte-position timing oracle.
        if not hmac.compare_digest(self.tag(message), tag):
            raise MacError("link MAC verification failed")


class PmmacAuthenticator:
    """PMMAC-style per-bucket authentication.

    A bucket's tag binds together its tree position, its monotonically
    increasing write counter, and its (encrypted) contents.  Verification
    recomputes the tag with the counter the reader believes is current, so a
    replayed stale bucket fails even though its tag was once valid.
    """

    TAG_BYTES = 8

    def __init__(self, key: bytes):
        self._prf = Prf(key)

    def tag(self, bucket_index: int, counter: int, payload: bytes) -> bytes:
        header = _INDEX_COUNTER.pack(bucket_index, counter)
        return self._prf.evaluate(b"pmmac:" + header + payload, self.TAG_BYTES)

    def verify(self, bucket_index: int, counter: int, payload: bytes,
               tag: bytes) -> None:
        expected = self.tag(bucket_index, counter, payload)
        if not hmac.compare_digest(expected, tag):
            raise MacError(
                f"PMMAC verification failed for bucket {bucket_index} "
                f"at counter {counter}"
            )
