"""Physical-address interleaving for one memory channel.

Maps a cache-line address to (rank, bank, row, column) coordinates.  The
non-secure baseline uses the classic row:rank:bank:column interleaving so
consecutive lines stream through one row buffer while independent rows
spread over banks and ranks.  The ORAM layouts in :mod:`repro.oram.layout`
bypass this mapper and place buckets explicitly; they still produce
:class:`DecodedAddress` coordinates so both paths share the timing model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.config import DramOrganization
from repro.utils.bitops import extract_bits, log2_exact
from repro.utils import memo
from repro.utils.memo import DEFAULT_MEMO_CAP


@dataclass(frozen=True)
class DecodedAddress:
    """Coordinates of one cache line inside a channel."""

    rank: int
    bank: int
    row: int
    column: int

    def same_row(self, other: "DecodedAddress") -> bool:
        return (self.rank, self.bank, self.row) == (
            other.rank, other.bank, other.row)


class AddressMapper:
    """Line-address to coordinates mapping with a chosen interleaving.

    ``scheme`` orders the fields from least to most significant bit of the
    line address.  The default ``("column", "bank", "rank", "row")`` keeps a
    row's worth of lines contiguous (column fastest) and interleaves banks
    then ranks before moving to the next row — the layout used by the
    baseline simulator.
    """

    SCHEMES = {
        "row:rank:bank:col": ("column", "bank", "rank", "row"),
        "row:col:rank:bank": ("bank", "rank", "column", "row"),
        "row:bank:rank:col": ("column", "rank", "bank", "row"),
    }

    def __init__(self, organization: DramOrganization, line_bytes: int = 64,
                 scheme: str = "row:rank:bank:col"):
        if scheme not in self.SCHEMES:
            raise ValueError(f"unknown interleaving scheme {scheme!r}; "
                             f"choose from {sorted(self.SCHEMES)}")
        self.organization = organization
        self.line_bytes = line_bytes
        self.scheme = scheme
        self._field_bits = {
            "column": log2_exact(organization.row_bytes // line_bytes),
            "bank": log2_exact(organization.banks_per_rank),
            "rank": log2_exact(organization.ranks_per_channel),
            "row": log2_exact(organization.rows_per_bank),
        }
        self._order = self.SCHEMES[scheme]
        # decode() dominates the non-secure baseline's per-miss cost; the
        # mapping is pure, so memoize it (bounded: clears when full).
        self._decode_cache: Dict[int, DecodedAddress] = {}

    @property
    def lines_per_channel(self) -> int:
        return self.organization.channel_bytes // self.line_bytes

    def decode(self, line_address: int) -> DecodedAddress:
        """Split a line address into channel coordinates."""
        cached = self._decode_cache.get(line_address)
        if cached is not None:
            return cached
        if not 0 <= line_address < self.lines_per_channel:
            raise ValueError(
                f"line address {line_address} outside channel "
                f"(capacity {self.lines_per_channel} lines)")
        fields = {}
        low = 0
        for name in self._order:
            width = self._field_bits[name]
            fields[name] = extract_bits(line_address, low, width)
            low += width
        decoded = DecodedAddress(rank=fields["rank"], bank=fields["bank"],
                                 row=fields["row"], column=fields["column"])
        if memo.CORE.memo:
            if len(self._decode_cache) >= DEFAULT_MEMO_CAP:
                self._decode_cache.clear()
            self._decode_cache[line_address] = decoded
        return decoded

    def encode(self, decoded: DecodedAddress) -> int:
        """Inverse of :meth:`decode`."""
        values = {"rank": decoded.rank, "bank": decoded.bank,
                  "row": decoded.row, "column": decoded.column}
        line_address = 0
        low = 0
        for name in self._order:
            width = self._field_bits[name]
            value = values[name]
            if value >> width:
                raise ValueError(f"{name}={value} does not fit in {width} bits")
            line_address |= value << low
            low += width
        return line_address
