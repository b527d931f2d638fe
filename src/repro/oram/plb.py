"""The PosMap Lookaside Buffer front end (Freecursive ORAM, Section II-D).

On every LLC miss, the front end checks the PLB for the PosMap blocks of
ORAM_1 .. ORAM_n that cover the request.  The first hit at level *i* means
the child's leaf is already on chip, so only ORAM_{i-1} .. ORAM_0 need path
accesses; a complete miss walks the whole chain from the on-chip map.
Fetched PosMap blocks enter the PLB; since every access rewrites the entry
it covers, resident PosMap blocks are always dirty, and a PLB eviction adds
one write-back path access for the victim.

This front end is shared by every secure design in the paper: the baseline
Freecursive backend consumes its access list directly, and the SDIMM
designs run it CPU-side to generate ``accessORAM`` commands ("the CPU
manages the frontend of ORAM while SDIMMs accelerate the backend").
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.cache.cache import SetAssociativeCache
from repro.config import OramConfig
from repro.utils.bitops import log2_exact

#: PLB keys pack (posmap block address, oram level) — levels must fit 3 bits.
_MAX_POSMAP_LEVELS = 7


class OramAccess(NamedTuple):
    """One accessORAM operation the backend must perform."""

    oram_level: int        # 0 = data ORAM, k >= 1 = PosMap ORAM_k
    block_address: int     # block index within that ORAM
    is_writeback: bool     # True for a dirty PLB-eviction write-back


class PlbFrontend:
    """Translates LLC-miss addresses into accessORAM lists via the PLB."""

    def __init__(self, oram: OramConfig, enabled: bool = True):
        if oram.recursive_posmaps > _MAX_POSMAP_LEVELS:
            raise ValueError(f"at most {_MAX_POSMAP_LEVELS} PosMap levels")
        self.oram = oram
        self.posmap_levels = oram.recursive_posmaps
        self._entry_shift = log2_exact(oram.posmap_entries_per_block)
        self.enabled = enabled
        self.plb: Optional[SetAssociativeCache] = None
        if enabled:
            self.plb = SetAssociativeCache(
                capacity_bytes=oram.plb_bytes,
                line_bytes=oram.block_bytes,
                associativity=oram.plb_assoc,
                name="plb")
        self.requests = 0
        self.accesses = 0
        self.plb_hits = 0
        self.writebacks = 0

    # ------------------------------------------------------------------

    def _posmap_block(self, address: int, level: int) -> int:
        return address >> (self._entry_shift * level)

    @staticmethod
    def _key(block_address: int, level: int) -> int:
        return (block_address << 3) | level

    @staticmethod
    def _unkey(key: int) -> "tuple[int, int]":
        return key >> 3, key & 7

    # ------------------------------------------------------------------

    def translate(self, address: int) -> List[OramAccess]:
        """accessORAM operations needed to serve a miss on ``address``.

        The returned list is in issue order: PLB-eviction write-backs first,
        then the PosMap read chain top-down, ending with the data access.
        """
        self.requests = self.requests + 1
        if not self.enabled or self.plb is None:
            chain = [OramAccess(level, self._posmap_block(address, level),
                                False)
                     for level in range(self.posmap_levels, -1, -1)]
            self.accesses += len(chain)
            return chain

        hit_level = self.posmap_levels + 1
        for level in range(1, self.posmap_levels + 1):
            if self.plb.probe(self._key(self._posmap_block(address, level),
                                        level)):
                hit_level = level
                self.plb_hits += 1
                break

        operations: List[OramAccess] = []
        # Fetch the missing PosMap blocks (levels hit_level-1 .. 1) and
        # install them in the PLB, recording dirty evictions.
        for level in range(hit_level - 1, 0, -1):
            block = self._posmap_block(address, level)
            result = self.plb.access(self._key(block, level), is_write=True)
            if result.victim_dirty and result.victim_address is not None:
                victim_block, victim_level = self._unkey(result.victim_address)
                operations.append(OramAccess(victim_level, victim_block,
                                             True))
                self.writebacks += 1
        # Touch the hit block (its entry gets rewritten, staying dirty).
        if hit_level <= self.posmap_levels:
            block = self._posmap_block(address, hit_level)
            self.plb.access(self._key(block, hit_level), is_write=True)
        # The read chain itself, top-down, ending at the data ORAM.
        for level in range(min(hit_level, self.posmap_levels), -1, -1):
            if hit_level <= self.posmap_levels and level == hit_level:
                continue  # served from the PLB, no path access
            operations.append(OramAccess(
                level, self._posmap_block(address, level), False))
        self.accesses += len(operations)
        return operations

    @property
    def accesses_per_request(self) -> float:
        """The paper's headline 1.4 accessORAMs per LLC miss."""
        return self.accesses / self.requests if self.requests else 0.0
