"""Cryptographic primitives for the CPU <-> secure-buffer link and PMMAC.

The paper uses counter-mode AES and PMMAC (position-map MAC) integrity.
Hardware AES is irrelevant to protocol behaviour, so we build the same
constructions over a SHAKE-256 PRF: a counter-mode pad cipher, keyed MACs, and
the boot-time session handshake that authenticates each SDIMM buffer and
agrees on upstream/downstream keys and counters.
"""
