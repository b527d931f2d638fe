"""Tests for the channel address mapper."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import DramOrganization
from repro.dram.address import AddressMapper, DecodedAddress


def make_mapper(scheme="row:rank:bank:col"):
    return AddressMapper(DramOrganization(), line_bytes=64, scheme=scheme)


class TestAddressMapper:
    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            make_mapper("banana")

    def test_capacity(self):
        mapper = make_mapper()
        assert mapper.lines_per_channel == 16 * 2**30 // 64

    def test_sequential_lines_share_row(self):
        mapper = make_mapper()
        first = mapper.decode(0)
        second = mapper.decode(1)
        assert first.same_row(second)
        assert second.column == first.column + 1

    def test_row_crossing_changes_bank(self):
        mapper = make_mapper()
        lines_per_row = DramOrganization().row_bytes // 64
        inside = mapper.decode(lines_per_row - 1)
        outside = mapper.decode(lines_per_row)
        assert not inside.same_row(outside)
        assert outside.bank == inside.bank + 1

    def test_decode_rejects_out_of_range(self):
        mapper = make_mapper()
        with pytest.raises(ValueError):
            mapper.decode(mapper.lines_per_channel)
        with pytest.raises(ValueError):
            mapper.decode(-1)

    @given(st.integers(min_value=0, max_value=16 * 2**30 // 64 - 1))
    def test_roundtrip(self, line):
        mapper = make_mapper()
        assert mapper.encode(mapper.decode(line)) == line

    @given(st.integers(min_value=0, max_value=16 * 2**30 // 64 - 1))
    def test_roundtrip_alternate_scheme(self, line):
        mapper = make_mapper("row:col:rank:bank")
        assert mapper.encode(mapper.decode(line)) == line

    @given(st.integers(min_value=0, max_value=16 * 2**30 // 64 - 1))
    def test_roundtrip_bank_rank_scheme(self, line):
        mapper = make_mapper("row:bank:rank:col")
        assert mapper.encode(mapper.decode(line)) == line

    # Default organization: 128 columns (7 bits), 8 banks (3), 8 ranks
    # (3), 32768 rows (15).  80261 = 5 + 3 << 7 + 6 << 10 + 9 << 13.
    # Expected (rank, bank, row, column) worked out by hand per scheme.
    @pytest.mark.parametrize("scheme, line, expected", [
        ("row:rank:bank:col", 0, (0, 0, 0, 0)),
        ("row:rank:bank:col", 127, (0, 0, 0, 127)),
        ("row:rank:bank:col", 128, (0, 1, 0, 0)),
        ("row:rank:bank:col", 80261, (6, 3, 9, 5)),
        ("row:rank:bank:col", 2**28 - 1, (7, 7, 32767, 127)),
        ("row:col:rank:bank", 0, (0, 0, 0, 0)),
        ("row:col:rank:bank", 127, (7, 7, 0, 1)),
        ("row:col:rank:bank", 128, (0, 0, 0, 2)),
        ("row:col:rank:bank", 80261, (0, 5, 9, 102)),
        ("row:col:rank:bank", 2**28 - 1, (7, 7, 32767, 127)),
        ("row:bank:rank:col", 0, (0, 0, 0, 0)),
        ("row:bank:rank:col", 127, (0, 0, 0, 127)),
        ("row:bank:rank:col", 128, (1, 0, 0, 0)),
        ("row:bank:rank:col", 80261, (3, 6, 9, 5)),
        ("row:bank:rank:col", 2**28 - 1, (7, 7, 32767, 127)),
    ])
    def test_decode_pins_hand_computed_fields(self, scheme, line, expected):
        decoded = make_mapper(scheme).decode(line)
        assert (decoded.rank, decoded.bank, decoded.row,
                decoded.column) == expected

    def test_decoded_address_is_immutable(self):
        decoded = make_mapper().decode(80261)
        assert decoded == DecodedAddress(rank=6, bank=3, row=9, column=5)
        with pytest.raises(AttributeError):
            decoded.row = 0

    def test_encode_rejects_oversized_field(self):
        mapper = make_mapper()
        with pytest.raises(ValueError):
            mapper.encode(DecodedAddress(rank=8, bank=0, row=0, column=0))

    def test_fields_within_bounds(self):
        mapper = make_mapper()
        org = DramOrganization()
        for line in range(0, mapper.lines_per_channel, 7919 * 64):
            decoded = mapper.decode(line)
            assert 0 <= decoded.rank < org.ranks_per_channel
            assert 0 <= decoded.bank < org.banks_per_rank
            assert 0 <= decoded.row < org.rows_per_bank
            assert 0 <= decoded.column < org.row_bytes // 64

    def test_bank_interleave_scheme_spreads_consecutive_lines(self):
        mapper = make_mapper("row:col:rank:bank")
        first = mapper.decode(0)
        second = mapper.decode(1)
        assert second.bank != first.bank
