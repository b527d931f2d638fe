"""Counter-mode pad encryption for buckets and link messages.

Counter mode XORs plaintext with a pad that is a function of (key, nonce,
counter).  Its two properties matter to the ORAM protocols:

* the pad can be computed before data arrives, hiding decryption latency
  (the paper's 21-cycle crypto pipeline), and
* re-encrypting a bucket after an access requires only bumping its counter,
  so identical plaintexts never produce identical ciphertexts.

The functional tier writes a bucket back under a bumped counter and reads
it next under that same counter, so each (nonce, counter) pad is requested
at least twice, and a nonce's pad is dead once its counter advances.  The
cipher therefore keeps one derived keystream per nonce, the latest one
(the emulation of the hardware pipeline's pad precomputation), and XORs
through large-integer arithmetic instead of a per-byte generator.
"""

from __future__ import annotations

import struct
from typing import Dict, Tuple

from repro.crypto.prf import Prf
from repro.utils import memo

#: A pad's seed: the ``pad:`` label, then nonce and counter, 8
#: little-endian bytes each.
_PAD_SEED = struct.Struct("<4sQQ")


class CounterModeCipher:
    """Encrypt/decrypt byte strings under (nonce, counter) pads."""

    def __init__(self, key: bytes):
        self._prf = Prf(key)
        # nonce -> (counter, keystream) of the last pad derived for it
        self._pads: Dict[int, Tuple[int, bytes]] = {}

    def pad(self, nonce: int, counter: int, length: int) -> bytes:
        """The keystream for a given (nonce, counter) pair."""
        cached = self._pads.get(nonce)
        if cached is not None:
            cached_counter, keystream = cached
            if cached_counter == counter and len(keystream) >= length:
                return keystream if len(keystream) == length \
                    else keystream[:length]
        keystream = self._prf.evaluate(
            _PAD_SEED.pack(b"pad:", nonce, counter), length)
        if not memo.CORE.reference:
            self._pads[nonce] = (counter, keystream)
        return keystream

    def encrypt(self, plaintext: bytes, nonce: int, counter: int,
                offset: int = 0) -> bytes:
        """XOR ``plaintext`` with the (nonce, counter) pad from ``offset``.

        Pieces of one message encrypted separately must sit at disjoint
        offsets of the keystream; two pieces under the same bytes of pad
        XOR to the XOR of their plaintexts.
        """
        length = len(plaintext)
        pad = self.pad(nonce, counter, offset + length)
        if offset:
            pad = pad[offset:]
        mask = int.from_bytes(plaintext, "little") ^ \
            int.from_bytes(pad, "little")
        return mask.to_bytes(length, "little")

    def decrypt(self, ciphertext: bytes, nonce: int, counter: int,
                offset: int = 0) -> bytes:
        """Counter mode is an involution: decryption equals encryption."""
        return self.encrypt(ciphertext, nonce, counter, offset)
