"""A write-back, write-allocate, LRU set-associative cache.

One implementation serves three roles in the reproduction:

* the 2 MB shared LLC in front of the memory system (Table II),
* the 64 KB PosMap Lookaside Buffer of Freecursive ORAM, and
* the 64 KB on-chip cache holding the first few ORAM tree levels.

The model tracks tags and dirty bits only — data payloads live with the
callers that need them (the functional ORAM keeps real bytes; the timing
tier keeps none).
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from repro.utils.bitops import is_power_of_two, log2_exact


class AccessResult(NamedTuple):
    """Outcome of one cache access; every hit returns one shared instance."""

    hit: bool
    #: line address of the evicted victim, if the fill displaced one
    victim_address: Optional[int] = None
    #: True when the victim was dirty and must be written back
    victim_dirty: bool = False


_HIT = AccessResult(True)
_CLEAN_FILL = AccessResult(False)


class SetAssociativeCache:
    """LRU set-associative cache over line addresses."""

    def __init__(self, capacity_bytes: int, line_bytes: int,
                 associativity: int, name: str = "cache"):
        if capacity_bytes % (line_bytes * associativity):
            raise ValueError("capacity must be a whole number of sets")
        self.name = name
        self.line_bytes = line_bytes
        self.associativity = associativity
        self.set_count = capacity_bytes // (line_bytes * associativity)
        if not is_power_of_two(self.set_count):
            raise ValueError(f"set count {self.set_count} must be a power "
                             f"of two for address slicing")
        # per-set mapping tag -> dirty, in LRU order (oldest first)
        self._sets: Dict[int, Dict[int, bool]] = {}
        self._set_mask = self.set_count - 1
        self._tag_shift = log2_exact(self.set_count)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    def _locate(self, line_address: int) -> Tuple[int, int]:
        return line_address & self._set_mask, line_address >> self._tag_shift

    def access(self, line_address: int, is_write: bool = False) -> AccessResult:
        """Reference a line; fill on miss; return hit/victim information."""
        set_index = line_address & self._set_mask
        tag = line_address >> self._tag_shift
        cache_set = self._sets.get(set_index)
        if cache_set is None:
            cache_set = self._sets[set_index] = {}
        elif tag in cache_set:
            self.hits += 1
            dirty = cache_set.pop(tag) or is_write
            cache_set[tag] = dirty  # reinsert as most-recently-used
            return _HIT

        self.misses += 1
        cache_set[tag] = is_write
        if len(cache_set) <= self.associativity:
            return _CLEAN_FILL
        victim_tag = next(iter(cache_set))
        victim_dirty = cache_set.pop(victim_tag)
        self.evictions += 1
        if victim_dirty:
            self.writebacks += 1
        return AccessResult(False, (victim_tag << self._tag_shift) | set_index,
                            victim_dirty)

    def probe(self, line_address: int) -> bool:
        """Check residency without touching LRU state."""
        set_index, tag = self._locate(line_address)
        cache_set = self._sets.get(set_index)
        return cache_set is not None and tag in cache_set

    def invalidate(self, line_address: int) -> bool:
        """Drop a line if present; returns whether it was resident."""
        set_index, tag = self._locate(line_address)
        cache_set = self._sets.get(set_index)
        if cache_set is not None and tag in cache_set:
            del cache_set[tag]
            return True
        return False

    def flush(self) -> int:
        """Empty the cache; returns how many dirty lines would write back."""
        dirty = sum(flag for cache_set in self._sets.values()
                    for flag in cache_set.values())
        self._sets.clear()
        return dirty

    @property
    def resident_lines(self) -> int:
        return sum(len(cache_set) for cache_set in self._sets.values())

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0
