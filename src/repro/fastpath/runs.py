"""Fast integer path-pattern production for the macro-replay core.

:class:`FastTreeRuns` and :class:`FastLowPowerRuns` reproduce
:meth:`repro.oram.layout.TreeLayout.path_runs` and
:meth:`repro.oram.layout.LowPowerLayout.path_runs` with the subtree-band
arithmetic, channel striping, and sequential address decode inlined into
flat integer loops — no :class:`~repro.dram.address.DecodedAddress`
objects, no per-bucket helper calls.  The per-level band constants
(``(1 << band_top) - 1`` etc.) depend only on the geometry, so both
producers fold them into a precomputed per-level term table at
construction; per access the band loop is three shifts, a mask, and two
multiply-adds per level.

The producers emit **row segments**, not runs.  A segment is a maximal
stretch of consecutive runs of one channel's pass on one (rank, bank,
row): ``(rank, bank, row, lines, counts)`` with ``counts`` the sub-run
lengths in emission order and ``lines`` their sum.  The subtree packing
puts a band's buckets in one row, so a path's runs collapse into about
half as many segments, and :func:`~repro.dram.stamp.stamp_pass`
walks the DDR constraint chain once per segment.
``tests/test_fastpath_runs.py`` pins every segment (and every sub-run)
against the layouts' ``path_runs`` merged by (rank, bank, row).

The product is a :class:`PathPattern`: the per-channel segment lists
plus the touched ranks (the eligibility check reads them every access).
Patterns are built fresh per access and not memoized: Path ORAM maps
every access to a fresh uniform leaf, so at the paper's tree sizes a
cache keyed by ``(leaf, skip)`` does not hit.
"""

from __future__ import annotations

from typing import Dict, Tuple


def _level_terms(total_levels: int, sub_total: int, subtree_levels: int,
                 lines_per_bucket: int, rank_levels: int) -> tuple:
    """Per-level constants of the subtree-band address computation.

    For (sub-)level ``s`` of a tree whose packed region spans
    ``sub_total`` levels, the bucket's first line is::

        const + (position >> in_band) * mult + (position & mask) * lpb

    with ``position`` the path's position within the (sub-)tree at that
    level.  Entries are ``(shift, in_band, mask, const, mult)`` where
    ``shift`` turns a leaf into that position (``leaf >> shift``) for
    level ``rank_levels + s``; the per-rank sub-tree layout first drops
    the leaf's top ``rank_levels`` bits.
    """
    terms = []
    for sub_level in range(sub_total):
        in_band = sub_level % subtree_levels
        band_top = sub_level - in_band
        depth = sub_total - band_top
        if depth > subtree_levels:
            depth = subtree_levels
        const = ((1 << band_top) - 1 + (1 << in_band) - 1) * lines_per_bucket
        mult = ((1 << depth) - 1) * lines_per_bucket
        shift = total_levels - 1 - (rank_levels + sub_level)
        terms.append((shift, in_band, (1 << in_band) - 1, const, mult))
    return tuple(terms)


def _merge_runs(runs) -> tuple:
    """Row segments of ``(rank, bank, row, count)`` runs in pass order.

    Consecutive runs on one (rank, bank, row) join one segment.
    """
    segments: list = []
    for rank, bank, row, count in runs:
        if segments and segments[-1][:3] == (rank, bank, row):
            last = segments[-1]
            segments[-1] = (rank, bank, row, last[3] + count,
                            last[4] + (count,))
        else:
            segments.append((rank, bank, row, count, (count,)))
    return tuple(segments)


def _channel_segments(terms, leaf: int, lines_per_bucket: int,
                      columns: int, banks: int, ranks: int, rows: int,
                      rank_base: int) -> Tuple[tuple, int]:
    """Row segments of one path on an unstriped channel, plus rank mask.

    ``leaf`` indexes the (sub-)tree that ``terms`` describe.  One loop
    over levels.  A bucket that lies wholly inside the open segment's
    row extends it: the open sub-run when its first line is contiguous
    (the layouts' bucket-range merge), a new sub-run otherwise.  Any other bucket goes piece by piece — split at row
    boundaries as ``_split_rows`` does — and a piece on a new row key
    (``line // columns``) is decoded to (rank, bank, row): ``rank_base``
    plus the decoded rank, which ``ranks=1`` pins for the one-rank
    layout.  It starts a new segment unless it aliases the open one
    (trees larger than the channel wrap rows).
    """
    segments: list = []
    rank_mask = 0
    counts: list = []           # closed sub-runs of the open segment
    sub_start = sub_end = 0     # the open sub-run
    seg_key = seg_rank = seg_bank = seg_row = -1
    # a bucket starting in [seg_low, seg_last] lies inside the open row
    seg_low, seg_last = 0, -1
    for shift, in_band, mask, const, mult in terms:
        position = leaf >> shift
        line = (const + (position >> in_band) * mult
                + (position & mask) * lines_per_bucket)
        if seg_low <= line <= seg_last:
            if line != sub_end:
                counts.append(sub_end - sub_start)
                sub_start = line
            sub_end = line + lines_per_bucket
            continue
        end = line + lines_per_bucket
        while line < end:
            key = line // columns
            piece_end = (key + 1) * columns
            if piece_end > end:
                piece_end = end
            if key == seg_key:
                if line != sub_end:
                    counts.append(sub_end - sub_start)
                    sub_start = line
            else:
                bank = key % banks
                rest = key // banks
                rank = rank_base + rest % ranks
                row = (rest // ranks) % rows
                if seg_key >= 0:
                    counts.append(sub_end - sub_start)
                    if row != seg_row or bank != seg_bank \
                            or rank != seg_rank:
                        segments.append((seg_rank, seg_bank, seg_row,
                                         sum(counts), tuple(counts)))
                        counts = []
                if not counts:
                    seg_rank = rank
                    seg_bank = bank
                    seg_row = row
                    rank_mask |= 1 << rank
                sub_start = line
                seg_key = key
                seg_low = key * columns
                seg_last = seg_low + columns - lines_per_bucket
            sub_end = line = piece_end
    if seg_key >= 0:
        counts.append(sub_end - sub_start)
        segments.append((seg_rank, seg_bank, seg_row, sum(counts),
                         tuple(counts)))
    return tuple(segments), rank_mask


class PathPattern:
    """One path access's row segments plus the ranks they touch.

    ``per_channel`` holds ``(channel, segments, slots)`` per touched
    channel; ``sig_ranks`` the touched ``(channel, rank)`` pairs.
    ``slots`` is ``None`` for a one-channel pattern; otherwise it maps
    each sub-run, in segment order, to its position in the layout's
    emission order, so a multi-channel stamp reproduces the slow core's
    event order exactly.
    """

    __slots__ = ("per_channel", "sig_ranks")

    def __init__(self, per_channel: tuple, sig_ranks: tuple):
        self.per_channel = per_channel
        self.sig_ranks = sig_ranks

    @property
    def run_count(self) -> int:
        """Sub-runs over all channels: one burst event each per pass."""
        return sum(len(segment[4]) for _channel, segments, _slots
                   in self.per_channel for segment in segments)

    def slices(self, ways: int) -> Tuple[tuple, ...]:
        """Per-way segment shares, matching ``SdimmDevice.slice_runs``.

        Way ``w`` takes ``ceil((count - w) / ways)`` lines of each
        *sub-run* (zero-line shares dropped) — slicing a merged count
        would split differently.  Addresses are unchanged, so every way
        streams the same rows — the Split design's bandwidth split.
        Split members run one channel, so only the first channel's
        segments are sliced.
        """
        segments = self.per_channel[0][1] if self.per_channel else ()
        shares = []
        for way in range(ways):
            offset = ways - 1 - way
            share: list = []
            for rank, bank, row, _lines, counts in segments:
                # a ``count``-line sub-run gives this way nothing when
                # ``count <= way``
                portions = tuple([(count + offset) // ways
                                  for count in counts if count > way])
                if not portions:
                    continue
                if share and share[-1][:3] == (rank, bank, row):
                    # only a segment this way dropped kept them apart
                    portions = share.pop()[4] + portions
                share.append((rank, bank, row, sum(portions), portions))
            shares.append(tuple(share))
        return tuple(shares)


class FastTreeRuns:
    """Pattern producer mirroring :class:`TreeLayout` (striped channels)."""

    def __init__(self, layout):
        self.layout = layout
        self.levels = layout.geometry.levels
        self.lines_per_bucket = layout.oram.lines_per_bucket
        self.channels = layout.channels
        decoder = layout._decoder
        self.columns = decoder.columns
        self.banks = decoder.banks
        self.ranks = decoder.ranks
        self.rows = decoder.rows
        self._terms = _level_terms(self.levels, self.levels,
                                   layout.subtree_levels,
                                   self.lines_per_bucket, 0)

    def pattern(self, leaf: int, skip_levels: int) -> PathPattern:
        if self.channels != 1:
            return self._striped(leaf, skip_levels)
        segments, rank_mask = _channel_segments(
            self._terms[skip_levels:], leaf, self.lines_per_bucket,
            self.columns, self.banks, self.ranks, self.rows, 0)
        return PathPattern(
            ((0, segments, None),) if segments else (),
            tuple((0, rank) for rank in range(self.ranks)
                  if rank_mask >> rank & 1))

    def _striped(self, leaf: int, skip_levels: int) -> PathPattern:
        """Multi-channel pattern: stripe each bucket range, then segment.

        Adjacent buckets merge into one line range *before* striping, and
        the layout emits each range's runs channel by channel; each
        channel's runs then merge into segments, and ``slots`` records
        each run's emission index.
        """
        lines_per_bucket = self.lines_per_bucket
        channels = self.channels
        columns = self.columns
        banks = self.banks
        ranks = self.ranks
        rows = self.rows
        ranges: list = []
        last_end = -1
        for shift, in_band, mask, const, mult in self._terms[skip_levels:]:
            position = leaf >> shift
            base = (const + (position >> in_band) * mult
                    + (position & mask) * lines_per_bucket)
            if base == last_end:
                last_end = ranges[-1][1] = base + lines_per_bucket
            else:
                last_end = base + lines_per_bucket
                ranges.append([base, last_end])
        parts: Dict[int, Tuple[list, list]] = {}
        rank_masks = [0] * channels
        index = 0
        for begin, end in ranges:
            for channel in range(channels):
                first = begin + (channel - begin) % channels
                if first >= end:
                    continue
                remaining = (end - first + channels - 1) // channels
                line = first // channels
                part = parts.get(channel)
                if part is None:
                    part = parts[channel] = ([], [])
                while remaining > 0:
                    column = line % columns
                    rest = line // columns
                    bank = rest % banks
                    rest //= banks
                    rank = rest % ranks
                    row = (rest // ranks) % rows
                    take = columns - column
                    if take > remaining:
                        take = remaining
                    part[0].append((rank, bank, row, take))
                    part[1].append(index)
                    rank_masks[channel] |= 1 << rank
                    index += 1
                    line += take
                    remaining -= take
        if len(parts) == 1:
            channel, (runs, _) = next(iter(parts.items()))
            per_channel: tuple = ((channel, _merge_runs(runs), None),)
        else:
            per_channel = tuple(
                (channel, _merge_runs(runs), tuple(slots))
                for channel, (runs, slots) in parts.items())
        sig_ranks = tuple((channel, rank)
                          for channel in range(channels)
                          for rank in range(ranks)
                          if rank_masks[channel] >> rank & 1)
        return PathPattern(per_channel, sig_ranks)


class FastLowPowerRuns:
    """Pattern producer mirroring :class:`LowPowerLayout` (one rank/path)."""

    def __init__(self, layout):
        self.layout = layout
        self.levels = layout.geometry.levels
        self.rank_levels = layout.rank_levels
        self.lines_per_bucket = layout.oram.lines_per_bucket
        decoder = layout._rank_decoders[0]
        self.columns = decoder.columns
        self.banks = decoder.banks
        self.rows = decoder.rows
        self._terms = _level_terms(self.levels,
                                   layout._rank_geometry.levels,
                                   layout.subtree_levels,
                                   self.lines_per_bucket, self.rank_levels)

    def pattern(self, leaf: int, skip_levels: int) -> PathPattern:
        rank_levels = self.rank_levels
        sub_bits = self.levels - 1 - rank_levels
        rank = leaf >> sub_bits
        first_level = skip_levels if skip_levels > rank_levels else rank_levels
        segments, _ = _channel_segments(
            self._terms[first_level - rank_levels:],
            leaf & ((1 << sub_bits) - 1),
            self.lines_per_bucket, self.columns, self.banks, 1, self.rows,
            rank)
        return PathPattern(((0, segments, None),) if segments else (),
                           ((0, rank),))
