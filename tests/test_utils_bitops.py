"""Unit and property tests for bit-manipulation helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.bitops import (
    bit_slice,
    ceil_div,
    ceil_log2,
    extract_bits,
    insert_bits,
    is_power_of_two,
    log2_exact,
    merge_bit_slices,
    merge_bits_round_robin,
    split_bits_round_robin,
)


class TestPowerOfTwo:
    def test_accepts_powers(self):
        for exponent in range(20):
            assert is_power_of_two(1 << exponent)

    def test_rejects_non_powers(self):
        for value in (0, -1, -4, 3, 6, 12, 100):
            assert not is_power_of_two(value)

    def test_log2_exact_roundtrip(self):
        for exponent in range(30):
            assert log2_exact(1 << exponent) == exponent

    def test_log2_exact_rejects_non_power(self):
        with pytest.raises(ValueError):
            log2_exact(12)

    def test_log2_exact_rejects_zero(self):
        with pytest.raises(ValueError):
            log2_exact(0)


class TestCeilHelpers:
    def test_ceil_log2_boundaries(self):
        assert ceil_log2(1) == 0
        assert ceil_log2(2) == 1
        assert ceil_log2(3) == 2
        assert ceil_log2(4) == 2
        assert ceil_log2(5) == 3

    def test_ceil_log2_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ceil_log2(0)

    def test_ceil_div(self):
        assert ceil_div(10, 5) == 2
        assert ceil_div(11, 5) == 3
        assert ceil_div(0, 5) == 0

    def test_ceil_div_rejects_bad_denominator(self):
        with pytest.raises(ValueError):
            ceil_div(10, 0)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_ceil_log2_property(self, value):
        bits = ceil_log2(value)
        assert (1 << bits) >= value
        if bits:
            assert (1 << (bits - 1)) < value


class TestBitFields:
    def test_extract(self):
        assert extract_bits(0b110110, 1, 3) == 0b011
        assert extract_bits(0xFF, 4, 4) == 0xF

    def test_insert(self):
        assert insert_bits(0, 4, 4, 0xA) == 0xA0
        assert insert_bits(0xFF, 0, 4, 0) == 0xF0

    def test_insert_rejects_overflow(self):
        with pytest.raises(ValueError):
            insert_bits(0, 0, 2, 4)

    @given(st.integers(min_value=0, max_value=2**40 - 1),
           st.integers(min_value=0, max_value=30),
           st.integers(min_value=0, max_value=10))
    def test_insert_extract_roundtrip(self, value, low, width):
        field = extract_bits(value, low, width)
        assert extract_bits(insert_bits(value, low, width, field),
                            low, width) == field


class TestByteSlicing:
    def test_two_way_slices(self):
        data = bytes(range(8))
        assert bit_slice(data, 0, 2) == bytes([0, 2, 4, 6])
        assert bit_slice(data, 1, 2) == bytes([1, 3, 5, 7])

    def test_rejects_bad_way(self):
        with pytest.raises(ValueError):
            bit_slice(b"abcd", 2, 2)

    @given(st.binary(max_size=128), st.integers(min_value=1, max_value=5))
    def test_slice_merge_roundtrip(self, data, ways):
        slices = [bit_slice(data, way, ways) for way in range(ways)]
        assert merge_bit_slices(slices) == data

    @given(st.binary(min_size=1, max_size=64))
    def test_no_slice_alone_reconstructs(self, data):
        left = bit_slice(data, 0, 2)
        right = bit_slice(data, 1, 2)
        assert len(left) + len(right) == len(data)


class TestRoundRobinBits:
    @given(st.integers(min_value=0, max_value=2**48 - 1),
           st.integers(min_value=1, max_value=6))
    def test_split_merge_roundtrip(self, value, ways):
        parts = split_bits_round_robin(value, 48, ways)
        assert merge_bits_round_robin(parts, 48) == value

    def test_split_rejects_overflow(self):
        with pytest.raises(ValueError):
            split_bits_round_robin(16, 4, 2)

    def test_split_parts_are_halves(self):
        parts = split_bits_round_robin(0b1111, 4, 2)
        assert parts == [0b11, 0b11]

    def test_single_way_is_identity(self):
        assert split_bits_round_robin(0xABC, 12, 1) == [0xABC]


def reference_split(value, width, ways):
    """The per-bit loop the string-slicing split must equal."""
    if width < 0:
        raise ValueError("width must be non-negative")
    if value >> width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    parts = [0] * ways
    for bit in range(width):
        if value >> bit & 1:
            parts[bit % ways] |= 1 << (bit // ways)
    return parts


def reference_merge(parts, width):
    """The per-bit loop the string-slicing merge must equal."""
    ways = len(parts)
    if ways == 0:
        raise ValueError("need at least one part")
    value = 0
    for bit in range(width):
        if parts[bit % ways] >> (bit // ways) & 1:
            value |= 1 << bit
    return value


class TestRoundRobinMatchesReference:
    @given(st.data(), st.integers(min_value=0, max_value=64),
           st.integers(min_value=1, max_value=4))
    def test_split_equals_loop(self, data, width, ways):
        value = data.draw(st.integers(min_value=0,
                                      max_value=(1 << width) - 1))
        assert split_bits_round_robin(value, width, ways) == \
            reference_split(value, width, ways)

    @given(st.integers(min_value=0, max_value=64),
           st.lists(st.integers(min_value=-(1 << 40), max_value=1 << 40),
                    min_size=1, max_size=4))
    def test_merge_equals_loop(self, width, parts):
        assert merge_bits_round_robin(parts, width) == \
            reference_merge(parts, width)

    @given(st.data(), st.integers(min_value=0, max_value=64),
           st.integers(min_value=1, max_value=4))
    def test_out_of_range_raises_like_loop(self, data, width, ways):
        value = data.draw(st.integers(min_value=1 << width,
                                      max_value=1 << (width + 8)))
        for split in (split_bits_round_robin, reference_split):
            with pytest.raises(ValueError):
                split(value, width, ways)

    def test_empty_parts_raise_like_loop(self):
        for merge in (merge_bits_round_robin, reference_merge):
            with pytest.raises(ValueError):
                merge([], 8)
