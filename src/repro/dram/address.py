"""Physical-address interleaving for one memory channel.

Maps a cache-line address to (rank, bank, row, column) coordinates.  The
non-secure baseline uses the classic row:rank:bank:column interleaving so
consecutive lines stream through one row buffer while independent rows
spread over banks and ranks.  The ORAM layouts in :mod:`repro.oram.layout`
bypass this mapper and place buckets explicitly; they still produce
:class:`DecodedAddress` coordinates so both paths share the timing model.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.config import DramOrganization
from repro.utils.bitops import log2_exact


class DecodedAddress(NamedTuple):
    """Coordinates of one cache line inside a channel (a NamedTuple: one
    is built per miss, at tuple cost)."""

    rank: int
    bank: int
    row: int
    column: int

    def same_row(self, other: "DecodedAddress") -> bool:
        return (self.rank, self.bank, self.row) == (
            other.rank, other.bank, other.row)


_FIELDS = DecodedAddress._fields


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
        self.lines_per_channel = organization.channel_bytes // line_bytes
        widths = {
            "column": log2_exact(organization.row_bytes // line_bytes),
            "bank": log2_exact(organization.banks_per_rank),
            "rank": log2_exact(organization.ranks_per_channel),
            "row": log2_exact(organization.rows_per_bank),
        }
        shifts, low = {}, 0
        for name in self.SCHEMES[scheme]:
            shifts[name], low = low, low + widths[name]
        #: (shift, mask) per field, in DecodedAddress order
        self._table = tuple((shifts[name], (1 << widths[name]) - 1)
                            for name in _FIELDS)

    def decode(self, line_address: int) -> DecodedAddress:
        """Split a line address into channel coordinates."""
        if not 0 <= line_address < self.lines_per_channel:
            raise ValueError(
                f"line address {line_address} outside channel "
                f"(capacity {self.lines_per_channel} lines)")
        (rank_shift, rank_mask), (bank_shift, bank_mask), \
            (row_shift, row_mask), (column_shift, column_mask) = self._table
        return DecodedAddress((line_address >> rank_shift) & rank_mask,
                              (line_address >> bank_shift) & bank_mask,
                              (line_address >> row_shift) & row_mask,
                              (line_address >> column_shift) & column_mask)

    def encode(self, decoded: DecodedAddress) -> int:
        """Inverse of :meth:`decode`."""
        line_address = 0
        for name, value, (shift, mask) in zip(_FIELDS, decoded, self._table):
            if value & ~mask:
                raise ValueError(
                    f"{name}={value} does not fit in {mask.bit_length()} bits")
            line_address |= value << shift
        return line_address
