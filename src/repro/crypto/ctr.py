"""Counter-mode pad encryption for buckets and link messages.

Counter mode XORs plaintext with a pad that is a function of (key, nonce,
counter).  Its two properties matter to the ORAM protocols:

* the pad can be computed before data arrives, hiding decryption latency
  (the paper's 21-cycle crypto pipeline), and
* re-encrypting a bucket after an access requires only bumping its counter,
  so identical plaintexts never produce identical ciphertexts.

The functional tier decrypts and immediately re-encrypts every bucket it
touches, so each (nonce, counter) pad is requested at least twice; the
cipher keeps a bounded cache of derived keystreams (the emulation of the
hardware pipeline's pad precomputation) and XORs through large-integer
arithmetic instead of a per-byte generator.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.crypto.prf import Prf
from repro.utils import memo
from repro.utils.memo import DEFAULT_MEMO_CAP


class CounterModeCipher:
    """Encrypt/decrypt byte strings under (nonce, counter) pads."""

    def __init__(self, key: bytes):
        self._prf = Prf(key)
        self._pad_cache: Dict[Tuple[int, int], bytes] = {}

    def pad(self, nonce: int, counter: int, length: int) -> bytes:
        """The keystream for a given (nonce, counter) pair."""
        cached = self._pad_cache.get((nonce, counter))
        if cached is not None and len(cached) >= length:
            return cached[:length]
        seed = nonce.to_bytes(8, "little") + counter.to_bytes(8, "little")
        keystream = self._prf.evaluate(b"pad:" + seed, length)
        if memo.CORE.memo:
            if len(self._pad_cache) >= DEFAULT_MEMO_CAP:
                self._pad_cache.clear()
            self._pad_cache[(nonce, counter)] = keystream
        return keystream

    def encrypt(self, plaintext: bytes, nonce: int, counter: int) -> bytes:
        """XOR ``plaintext`` with the (nonce, counter) pad."""
        pad = self.pad(nonce, counter, len(plaintext))
        mask = int.from_bytes(plaintext, "little") ^ \
            int.from_bytes(pad, "little")
        return mask.to_bytes(len(plaintext), "little")

    def decrypt(self, ciphertext: bytes, nonce: int, counter: int) -> bytes:
        """Counter mode is an involution: decryption equals encryption."""
        return self.encrypt(ciphertext, nonce, counter)
