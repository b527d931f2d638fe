"""Bit-manipulation helpers used by address mapping and bucket splitting.

The DRAM address mapper sizes its (rank, bank, row, column) fields from
power-of-two geometry, and the Split protocol bit-slices every block and
metadata field across SDIMMs.  Both reduce to a handful of primitive
operations on integers, collected here.
"""

from __future__ import annotations

from typing import List, Sequence


def is_power_of_two(value: int) -> bool:
    """Return True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int) -> int:
    """Return ``log2(value)`` for an exact power of two.

    Raises:
        ValueError: if ``value`` is not a positive power of two.
    """
    if not is_power_of_two(value):
        raise ValueError(f"{value} is not a positive power of two")
    return value.bit_length() - 1


def ceil_log2(value: int) -> int:
    """Return the smallest ``n`` such that ``2**n >= value``."""
    if value <= 0:
        raise ValueError(f"ceil_log2 requires a positive value, got {value}")
    return (value - 1).bit_length()


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer division rounding up."""
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    return -(-numerator // denominator)


def bit_slice(data: bytes, way: int, ways: int) -> bytes:
    """Return the ``way``-th byte-interleaved slice of ``data``.

    The Split protocol stores "one half of every block" per SDIMM.  We model
    the bit-slicing at byte granularity: slice *i* holds bytes
    ``i, i+ways, i+2*ways, ...``.  Byte granularity keeps the model simple
    while preserving the property the protocol needs — no slice alone reveals
    the block, and all slices together reconstruct it exactly.
    """
    if not 0 <= way < ways:
        raise ValueError(f"way {way} out of range for {ways} ways")
    return data[way::ways]


def merge_bit_slices(slices: Sequence[bytes]) -> bytes:
    """Inverse of :func:`bit_slice`: interleave slices back into one buffer."""
    ways = len(slices)
    if ways == 0:
        raise ValueError("need at least one slice")
    total = sum(len(part) for part in slices)
    merged = bytearray(total)
    for way, part in enumerate(slices):
        merged[way::ways] = part
    return bytes(merged)


def split_bits_round_robin(value: int, width: int, ways: int) -> List[int]:
    """Split an integer field of ``width`` bits round-robin across ``ways``.

    Used for slicing tags, leaf IDs and counters across split SDIMMs.  Bit
    ``i`` of ``value`` lands in slice ``i % ways`` at position ``i // ways``.
    In the value's ``width``-digit binary string, bit ``i`` sits at index
    ``width - 1 - i``, so each slice is one stride-``ways`` string slice.
    """
    if width < 0:
        raise ValueError("width must be non-negative")
    if value >> width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    digits = format(value, f"0{width}b")
    return [int(digits[(width - 1 - way) % ways::ways] or "0", 2)
            for way in range(ways)]


def merge_bits_round_robin(parts: Sequence[int], width: int) -> int:
    """Inverse of :func:`split_bits_round_robin`.

    Bits of a part beyond its share of the ``width`` bits are ignored.
    """
    ways = len(parts)
    if ways == 0:
        raise ValueError("need at least one part")
    if width <= 0:
        return 0
    digits = bytearray(width)
    for way, part in enumerate(parts[:width]):
        count = (width - 1 - way) // ways + 1
        digits[(width - 1 - way) % ways::ways] = format(
            part & ((1 << count) - 1), f"0{count}b").encode()
    return int(digits, 2)
