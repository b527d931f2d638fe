"""ORAM tree placement in DRAM (Ren et al. packing + the low-power layout).

Two layouts, both keyed on the same subtree-packed linearization:

* :class:`TreeLayout` — the optimized baseline arrangement: the tree is
  re-organized as a tree of small subtrees whose buckets sit in adjacent
  memory locations (high row-buffer hit rate), with consecutive cache lines
  striped across channels for channel parallelism [Ren et al.].
* :class:`LowPowerLayout` — the paper's Section III-E arrangement for an
  SDIMM's internal channel: each rank stores one whole subtree (selected by
  leaf MSBs) and the shared top levels live in the secure buffer's SRAM, so
  an access touches exactly one rank and the others can power down.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.config import DramOrganization, OramConfig
from repro.dram.address import DecodedAddress
from repro.oram.tree import TreeGeometry
from repro.utils.bitops import log2_exact


def subtree_packed_index(geometry: TreeGeometry, bucket: int,
                         subtree_levels: int) -> int:
    """Linear storage index of a bucket under subtree packing.

    Levels are grouped into bands of ``subtree_levels``; within a band, each
    subtree's buckets are stored contiguously in BFS order, so a path read
    touches one contiguous run per band instead of hopping rows every level.
    """
    level = geometry.level_of(bucket)
    position = geometry.position_of(bucket)
    band = level // subtree_levels
    level_in_band = level % subtree_levels
    band_top_level = band * subtree_levels
    # depth of subtrees in this band (the last band may be shallower)
    depth = min(subtree_levels, geometry.levels - band_top_level)
    subtree_size = (1 << depth) - 1
    subtree_id = position >> level_in_band
    within = (1 << level_in_band) - 1 + (position & ((1 << level_in_band) - 1))
    band_base = (1 << band_top_level) - 1
    return band_base + subtree_id * subtree_size + within


class _SequentialDecoder:
    """Line index -> (rank, bank, row, column), column fastest.

    Consecutive line indices fill a row, then move to the next bank, then
    the next rank, then the next row — keeping small contiguous runs inside
    one row buffer.  Indices beyond capacity wrap (the timing tier stores no
    data, so aliasing is harmless and keeps huge trees addressable).
    """

    def __init__(self, organization: DramOrganization, line_bytes: int,
                 ranks: Optional[int] = None, fixed_rank: Optional[int] = None):
        self.columns = organization.row_bytes // line_bytes
        self.banks = organization.banks_per_rank
        self.ranks = ranks if ranks is not None else organization.ranks_per_channel
        self.rows = organization.rows_per_bank
        self.fixed_rank = fixed_rank

    def decode(self, line_index: int) -> DecodedAddress:
        column = line_index % self.columns
        line_index //= self.columns
        bank = line_index % self.banks
        line_index //= self.banks
        if self.fixed_rank is None:
            rank = line_index % self.ranks
            line_index //= self.ranks
        else:
            rank = self.fixed_rank
        row = line_index % self.rows
        return DecodedAddress(rank=rank, bank=bank, row=row, column=column)


def _bucket_line_ranges(geometry: TreeGeometry, buckets, subtree_levels: int,
                        lines_per_bucket: int) -> List[Tuple[int, int]]:
    """Contiguous [begin, end) line-index ranges covering ``buckets``."""
    ranges: List[Tuple[int, int]] = []
    for bucket in buckets:
        base = subtree_packed_index(geometry, bucket,
                                    subtree_levels) * lines_per_bucket
        if ranges and ranges[-1][1] == base:
            ranges[-1] = (ranges[-1][0], base + lines_per_bucket)
        else:
            ranges.append((base, base + lines_per_bucket))
    return ranges


def _split_rows(decoder: "_SequentialDecoder", start_line: int,
                count: int) -> List[Tuple[DecodedAddress, int]]:
    """Split a contiguous per-channel line range at row boundaries."""
    runs = []
    remaining = count
    line = start_line
    while remaining > 0:
        address = decoder.decode(line)
        in_row = decoder.columns - address.column
        take = min(remaining, in_row)
        runs.append((address, take))
        line += take
        remaining -= take
    return runs


class TreeLayout:
    """Baseline placement: subtree packing + channel striping."""

    def __init__(self, geometry: TreeGeometry, oram: OramConfig,
                 organization: DramOrganization, channels: int,
                 subtree_levels: int = 4):
        if channels < 1:
            raise ValueError("need at least one channel")
        self.geometry = geometry
        self.oram = oram
        self.channels = channels
        self.subtree_levels = subtree_levels
        self._decoder = _SequentialDecoder(organization, oram.block_bytes)

    def bucket_lines(self, bucket: int) -> List[Tuple[int, DecodedAddress]]:
        """(channel, coordinates) of each cache line of one bucket."""
        linear = subtree_packed_index(self.geometry, bucket,
                                      self.subtree_levels)
        base = linear * self.oram.lines_per_bucket
        lines = []
        for offset in range(self.oram.lines_per_bucket):
            global_line = base + offset
            channel = global_line % self.channels
            lines.append((channel,
                          self._decoder.decode(global_line // self.channels)))
        return lines

    def path_lines(self, leaf: int,
                   skip_levels: int = 0) -> List[Tuple[int, DecodedAddress]]:
        """All lines of the path to ``leaf``, skipping on-chip-cached levels."""
        lines = []
        for bucket in self.geometry.path(leaf)[skip_levels:]:
            lines.extend(self.bucket_lines(bucket))
        return lines

    def path_runs(self, leaf: int, skip_levels: int = 0
                  ) -> List[Tuple[int, DecodedAddress, int]]:
        """The path's lines coalesced into same-row streaming runs.

        Returns (channel, first-line coordinates, line count) triples that
        :meth:`repro.dram.channel.Channel.schedule_run` consumes.  Exactly
        covers :meth:`path_lines` — adjacent buckets in one packing band
        merge into longer runs; channel striping and row boundaries split
        them.
        """
        ranges = _bucket_line_ranges(
            self.geometry, self.geometry.path(leaf)[skip_levels:],
            self.subtree_levels, self.oram.lines_per_bucket)
        runs = []
        for begin, end in ranges:
            for channel in range(self.channels):
                # lines of this channel within [begin, end)
                first = begin + (channel - begin) % self.channels
                if first >= end:
                    continue
                count = (end - first + self.channels - 1) // self.channels
                runs.extend(
                    (channel, address, run_count)
                    for address, run_count in _split_rows(
                        self._decoder, first // self.channels, count))
        return runs


class LowPowerLayout:
    """Section III-E placement inside one SDIMM: one subtree per rank.

    The top ``log2(ranks)`` levels of the (SDIMM-local) tree are held in
    the secure buffer's SRAM — :meth:`bucket_lines` returns ``None`` for
    them.  Every remaining bucket maps into the rank owning its subtree, so
    one ``accessORAM`` touches exactly one rank.
    """

    def __init__(self, geometry: TreeGeometry, oram: OramConfig,
                 organization: DramOrganization,
                 ranks: Optional[int] = None,
                 subtree_levels: int = 4):
        self.geometry = geometry
        self.oram = oram
        self.ranks = ranks if ranks is not None else organization.ranks_per_dimm
        self.rank_levels = log2_exact(self.ranks)
        if self.rank_levels >= geometry.levels:
            raise ValueError("tree too shallow to split across ranks")
        self.subtree_levels = subtree_levels
        self._organization = organization
        # geometry of the per-rank subtree
        self._rank_geometry = TreeGeometry(geometry.levels - self.rank_levels)
        # decoders are stateless per rank; build each once instead of per
        # bucket/path call
        self._rank_decoders = [
            _SequentialDecoder(organization, oram.block_bytes,
                               fixed_rank=rank)
            for rank in range(self.ranks)]

    def rank_of_leaf(self, leaf: int) -> int:
        """Which rank serves an access to ``leaf`` (its subtree owner)."""
        return leaf >> (self.geometry.levels - 1 - self.rank_levels)

    def bucket_lines(self, bucket: int) -> Optional[List[DecodedAddress]]:
        """Coordinates of one bucket, or None if it lives in buffer SRAM."""
        level = self.geometry.level_of(bucket)
        if level < self.rank_levels:
            return None
        position = self.geometry.position_of(bucket)
        rank = position >> (level - self.rank_levels)
        # re-root the bucket inside its rank's subtree
        sub_level = level - self.rank_levels
        sub_position = position & ((1 << sub_level) - 1)
        sub_bucket = self._rank_geometry.bucket_at(sub_level, sub_position)
        linear = subtree_packed_index(self._rank_geometry, sub_bucket,
                                      self.subtree_levels)
        decoder = self._rank_decoders[rank]
        base = linear * self.oram.lines_per_bucket
        return [decoder.decode(base + offset)
                for offset in range(self.oram.lines_per_bucket)]

    def path_lines(self, leaf: int,
                   skip_levels: int = 0) -> List[DecodedAddress]:
        """DRAM lines of the path to ``leaf`` (SRAM-resident levels omitted).

        ``skip_levels`` counts levels cached CPU-side on top of the
        SRAM-resident top of this tree.
        """
        lines = []
        for bucket in self.geometry.path(leaf)[skip_levels:]:
            located = self.bucket_lines(bucket)
            if located is not None:
                lines.extend(located)
        return lines

    def path_runs(self, leaf: int,
                  skip_levels: int = 0) -> List[Tuple[DecodedAddress, int]]:
        """The path's DRAM lines coalesced into same-row streaming runs.

        All runs land in the one rank owning ``leaf``'s subtree — the
        low-power invariant — so entries are (coordinates, count) pairs.
        """
        rank = self.rank_of_leaf(leaf)
        sub_buckets = []
        for bucket in self.geometry.path(leaf)[skip_levels:]:
            level = self.geometry.level_of(bucket)
            if level < self.rank_levels:
                continue
            sub_level = level - self.rank_levels
            sub_position = self.geometry.position_of(bucket) & \
                ((1 << sub_level) - 1)
            sub_buckets.append(
                self._rank_geometry.bucket_at(sub_level, sub_position))
        decoder = self._rank_decoders[rank]
        runs = []
        for begin, end in _bucket_line_ranges(
                self._rank_geometry, sub_buckets, self.subtree_levels,
                self.oram.lines_per_bucket):
            runs.extend(_split_rows(decoder, begin, end - begin))
        return runs
