"""Tests for the set-associative LRU cache (LLC / PLB / ORAM cache)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import SetAssociativeCache


def tiny_cache(assoc=2, sets=4, line=64):
    return SetAssociativeCache(capacity_bytes=assoc * sets * line,
                               line_bytes=line, associativity=assoc)


class TestBasics:
    def test_miss_then_hit(self):
        cache = tiny_cache()
        assert not cache.access(0).hit
        assert cache.access(0).hit

    def test_hits_return_equal_immutable_results(self):
        cache = tiny_cache()
        cache.access(0)
        first = cache.access(0)
        second = cache.access(0, is_write=True)
        assert first.hit and first == second
        assert first.victim_address is None and not first.victim_dirty
        with pytest.raises(AttributeError):
            first.hit = False
        with pytest.raises(AttributeError):
            second.victim_dirty = True
        assert cache.access(0).hit

    def test_counts(self):
        cache = tiny_cache()
        cache.access(0)
        cache.access(0)
        cache.access(1)
        assert cache.hits == 1
        assert cache.misses == 2
        assert cache.accesses == 3
        assert cache.hit_rate == pytest.approx(1 / 3)

    def test_rejects_ragged_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(1000, 64, 8)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(3 * 64 * 2, 64, 2)

    def test_resident_lines(self):
        cache = tiny_cache()
        for line in range(5):
            cache.access(line)
        assert cache.resident_lines == 5


class TestLruEviction:
    def test_lru_victim_chosen(self):
        cache = tiny_cache(assoc=2, sets=1)
        cache.access(0)
        cache.access(1)
        cache.access(0)          # 1 is now LRU
        result = cache.access(2)
        assert result.victim_address == 1

    def test_eviction_only_within_set(self):
        cache = tiny_cache(assoc=1, sets=4)
        cache.access(0)
        result = cache.access(1)  # different set, no eviction
        assert result.victim_address is None
        result = cache.access(4)  # same set as 0
        assert result.victim_address == 0

    def test_victim_address_reconstruction(self):
        cache = tiny_cache(assoc=1, sets=4)
        cache.access(13)
        result = cache.access(13 + 4)
        assert result.victim_address == 13

    def test_dirty_victim_flagged(self):
        cache = tiny_cache(assoc=1, sets=1)
        cache.access(0, is_write=True)
        result = cache.access(1)
        assert result.victim_dirty
        assert cache.writebacks == 1

    def test_clean_victim_not_flagged(self):
        cache = tiny_cache(assoc=1, sets=1)
        cache.access(0, is_write=False)
        result = cache.access(1)
        assert not result.victim_dirty
        assert cache.writebacks == 0

    def test_write_hit_dirties_line(self):
        cache = tiny_cache(assoc=1, sets=1)
        cache.access(0)
        cache.access(0, is_write=True)
        result = cache.access(1)
        assert result.victim_dirty

    def test_dirty_bit_sticks_through_reads(self):
        cache = tiny_cache(assoc=2, sets=1)
        cache.access(0, is_write=True)
        cache.access(1)
        cache.access(0)           # read hit must not clean the line
        cache.access(2)           # evicts 1 (clean)
        result = cache.access(3)  # evicts 0 (dirty)
        assert result.victim_dirty


class TestProbeInvalidateFlush:
    def test_probe_does_not_touch_lru(self):
        cache = tiny_cache(assoc=2, sets=1)
        cache.access(0)
        cache.access(1)
        assert cache.probe(0)
        # 0 is still LRU because probe must not promote it
        result = cache.access(2)
        assert result.victim_address == 0

    def test_probe_missing(self):
        assert not tiny_cache().probe(12)

    def test_invalidate(self):
        cache = tiny_cache()
        cache.access(0)
        assert cache.invalidate(0)
        assert not cache.probe(0)
        assert not cache.invalidate(0)

    def test_flush_reports_dirty_lines(self):
        cache = tiny_cache()
        cache.access(0, is_write=True)
        cache.access(1, is_write=True)
        cache.access(2)
        assert cache.flush() == 2
        assert cache.resident_lines == 0


class TestProperties:
    @settings(max_examples=30)
    @given(st.lists(st.integers(min_value=0, max_value=63), max_size=200))
    def test_occupancy_bounded(self, addresses):
        cache = tiny_cache(assoc=2, sets=4)
        for address in addresses:
            cache.access(address)
        assert cache.resident_lines <= 8

    @settings(max_examples=30)
    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1,
                    max_size=50))
    def test_working_set_within_capacity_never_misses_twice(self, addresses):
        """With 8 lines over 8 ways there are no conflict misses."""
        cache = tiny_cache(assoc=8, sets=1)
        for address in addresses:
            cache.access(address)
        assert cache.misses == len(set(addresses))

    @settings(max_examples=20)
    @given(st.lists(st.tuples(st.integers(0, 127), st.booleans()),
                    max_size=300))
    def test_hits_plus_misses_is_accesses(self, operations):
        cache = tiny_cache()
        for address, is_write in operations:
            cache.access(address, is_write)
        assert cache.hits + cache.misses == len(operations)
