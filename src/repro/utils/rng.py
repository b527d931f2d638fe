"""Deterministic, component-scoped random number generation.

Every stochastic component (leaf remapping, workload generation, drain
decisions) draws from its own named stream so that simulations are exactly
reproducible and adding randomness to one component never perturbs another.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from a root seed and a component name.

    Uses SHA-256 so that distinct names give statistically independent
    streams regardless of how similar the names are.
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class DeterministicRng:
    """A named, seeded RNG stream.

    Thin wrapper over :class:`random.Random` adding the operations the
    simulator actually needs, with explicit names so call sites read as
    protocol steps rather than generic randomness.
    """

    def __init__(self, root_seed: int, name: str):
        self.name = name
        self._rng = random.Random(derive_seed(root_seed, name))

    def child(self, name: str) -> "DeterministicRng":
        """Create an independent sub-stream."""
        return DeterministicRng(self._rng.getrandbits(63), f"{self.name}/{name}")

    def random_leaf(self, leaf_count: int) -> int:
        """Uniform leaf ID in ``[0, leaf_count)`` — ORAM remapping."""
        return self._rng.randrange(leaf_count)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        return self._rng.randint(low, high)

    def randrange(self, stop: int) -> int:
        return self._rng.randrange(stop)

    def random(self) -> float:
        return self._rng.random()

    def bernoulli(self, probability: float) -> bool:
        """Return True with the given probability."""
        return self._rng.random() < probability

    def expovariate(self, rate: float) -> float:
        return self._rng.expovariate(rate)

    def random_bytes(self, count: int) -> bytes:
        return self._rng.getrandbits(count * 8).to_bytes(count, "little")


class ZipfSampler:
    """Precomputed Zipf sampler: rank ``r`` has weight ``1/(r+1)**exponent``."""

    def __init__(self, rng: DeterministicRng, population: int, exponent: float):
        if population <= 0:
            raise ValueError("population must be positive")
        self._rng = rng
        self._cumulative = []
        total = 0.0
        for rank in range(population):
            total += 1.0 / (rank + 1) ** exponent
            self._cumulative.append(total)
        self._total = total

    def sample(self) -> int:
        import bisect

        point = self._rng.random() * self._total
        return bisect.bisect_left(self._cumulative, point)
