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
multiply-adds per level.  ``tests/test_fastpath_runs.py`` pins content
equality against the layout classes over both geometries.

The product is a :class:`PathPattern`: the run list in a tuple-of-ints
form plus the derived metadata the fast access core needs — the touched
ranks eagerly (the eligibility check reads them every access) and the
first-touch banks / touched bank groups lazily (only the Tier-A
signature reads those, and on big trees patterns effectively never
repeat so the signature is rarely built).  Patterns are immutable and
memoized per ``(leaf, skip)`` with the same bounded clear-when-full
policy the layouts use.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.utils import memo
from repro.utils.memo import DEFAULT_MEMO_CAP

#: One run: ``(channel, rank, bank, row, column, count)``.
Run6 = Tuple[int, int, int, int, int, int]


def _level_terms(total_levels: int, sub_total: int, subtree_levels: int,
                 lines_per_bucket: int, rank_levels: int) -> tuple:
    """Per-level constants of the subtree-band address computation.

    For (sub-)level ``s`` of a tree whose packed region spans
    ``sub_total`` levels, the bucket's first line is::

        const + (position >> in_band) * mult + (position & mask) * lpb

    with ``position`` the path's position within the (sub-)tree at that
    level.  Entries are ``(shift, in_band, mask, const, mult, pos_mask)``
    where ``shift`` turns a leaf into the full-width position
    (``leaf >> shift``) for level ``rank_levels + s`` and ``pos_mask``
    truncates it to the sub-tree width (a no-op for the full tree, used
    by the per-rank sub-tree layout).
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
        terms.append((shift, in_band, (1 << in_band) - 1, const, mult,
                      (1 << sub_level) - 1))
    return tuple(terms)


class PathPattern:
    """One path access's run list plus signature/stamping metadata.

    ``runs`` is the Tier-A delta-table key component; ``per_channel``
    groups the runs for per-channel pass stamping while remembering each
    run's position in the original emission order (``slots``) so a
    multi-channel stamp reproduces the slow core's event order exactly.
    """

    __slots__ = ("runs", "per_channel", "sig_ranks", "seen",
                 "_banks_per_group", "_sig_banks", "_sig_groups",
                 "_slice_cache")

    def __init__(self, runs: Tuple[Run6, ...], banks_per_group: int,
                 runs5: Optional[tuple] = None,
                 sig_ranks: Optional[tuple] = None):
        self.runs = runs
        self.seen = 0
        self._banks_per_group = banks_per_group
        self._sig_banks: Optional[tuple] = None
        self._sig_groups: Optional[tuple] = None
        self._slice_cache: Dict[int, tuple] = {}
        if runs5 is not None:
            # single-channel producer already built the 5-tuple form
            self.per_channel = ((0, runs5, None),)
        else:
            by_channel: Dict[int, Tuple[list, list]] = {}
            for index, run in enumerate(runs):
                part = by_channel.get(run[0])
                if part is None:
                    part = by_channel[run[0]] = ([], [])
                part[0].append(run[1:])
                part[1].append(index)
            if len(by_channel) == 1:
                channel, (channel_runs, _) = next(iter(by_channel.items()))
                self.per_channel = ((channel, tuple(channel_runs), None),)
            else:
                self.per_channel = tuple(
                    (channel, tuple(part_runs), tuple(slots))
                    for channel, (part_runs, slots) in by_channel.items())
        if sig_ranks is not None:
            self.sig_ranks = sig_ranks
        else:
            ranks: Dict[Tuple[int, int], None] = {}
            for run in runs:
                ranks.setdefault((run[0], run[1]), None)
            self.sig_ranks = tuple(ranks)

    @property
    def sig_banks(self) -> tuple:
        """First-touch ``(channel, rank, bank, first_row)`` per bank."""
        banks = self._sig_banks
        if banks is None:
            first: Dict[Tuple[int, int, int], int] = {}
            for channel, rank, bank, row, _column, _count in self.runs:
                key = (channel, rank, bank)
                if key not in first:
                    first[key] = row
            banks = self._sig_banks = tuple(
                key + (row,) for key, row in first.items())
        return banks

    @property
    def sig_groups(self) -> tuple:
        """Touched ``(channel, rank, bank_group)`` triples."""
        groups = self._sig_groups
        if groups is None:
            seen: Dict[Tuple[int, int, int], None] = {}
            per_group = self._banks_per_group
            for run in self.runs:
                seen.setdefault((run[0], run[1], run[2] // per_group), None)
            groups = self._sig_groups = tuple(seen)
        return groups

    def slices(self, ways: int) -> Tuple[tuple, ...]:
        """Per-way run shares, matching ``SdimmDevice.slice_runs``.

        Way ``w`` takes ``ceil((count - w) / ways)`` lines of each run
        (zero-line shares dropped); addresses are unchanged, so every way
        streams the same rows — the Split design's bandwidth split.
        """
        cached = self._slice_cache.get(ways)
        if cached is None:
            shares = []
            for way in range(ways):
                share = []
                for _channel, rank, bank, row, column, count in self.runs:
                    portion = (count - way + ways - 1) // ways
                    if portion > 0:
                        share.append((rank, bank, row, column, portion))
                shares.append(tuple(share))
            cached = self._slice_cache[ways] = tuple(shares)
        return cached


class FastTreeRuns:
    """Pattern producer mirroring :class:`TreeLayout` (striped channels)."""

    def __init__(self, layout, banks_per_group: int):
        self.layout = layout
        self.levels = layout.geometry.levels
        self.lines_per_bucket = layout.oram.lines_per_bucket
        self.channels = layout.channels
        decoder = layout._decoder
        self.columns = decoder.columns
        self.banks = decoder.banks
        self.ranks = decoder.ranks
        self.rows = decoder.rows
        self.banks_per_group = banks_per_group
        self._terms = _level_terms(self.levels, self.levels,
                                   layout.subtree_levels,
                                   self.lines_per_bucket, 0)
        self._cache: Dict[Tuple[int, int], PathPattern] = {}

    def pattern(self, leaf: int, skip_levels: int) -> PathPattern:
        key = (leaf, skip_levels)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        lines_per_bucket = self.lines_per_bucket
        channels = self.channels
        columns = self.columns
        banks = self.banks
        ranks = self.ranks
        rows = self.rows
        ranges: list = []
        last_end = -1
        for shift, in_band, mask, const, mult, _ in self._terms[skip_levels:]:
            position = leaf >> shift
            base = (const + (position >> in_band) * mult
                    + (position & mask) * lines_per_bucket)
            if base == last_end:
                last_end = ranges[-1][1] = base + lines_per_bucket
            else:
                last_end = base + lines_per_bucket
                ranges.append([base, last_end])
        runs: list = []
        runs5: list = []
        rank_masks = [0] * channels
        for begin, end in ranges:
            for channel in range(channels):
                first = begin + (channel - begin) % channels
                if first >= end:
                    continue
                remaining = (end - first + channels - 1) // channels
                line = first // channels
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
                    runs.append((channel, rank, bank, row, column, take))
                    runs5.append((rank, bank, row, column, take))
                    rank_masks[channel] |= 1 << rank
                    line += take
                    remaining -= take
        sig_ranks = tuple((channel, rank)
                          for channel in range(channels)
                          for rank in range(ranks)
                          if rank_masks[channel] >> rank & 1)
        pattern = PathPattern(tuple(runs), self.banks_per_group,
                              tuple(runs5) if channels == 1 else None,
                              sig_ranks)
        if memo.CORE.memo:
            if len(self._cache) >= DEFAULT_MEMO_CAP:
                self._cache.clear()
            self._cache[key] = pattern
        return pattern


class FastLowPowerRuns:
    """Pattern producer mirroring :class:`LowPowerLayout` (one rank/path)."""

    def __init__(self, layout, banks_per_group: int):
        self.layout = layout
        self.levels = layout.geometry.levels
        self.rank_levels = layout.rank_levels
        self.lines_per_bucket = layout.oram.lines_per_bucket
        decoder = layout._rank_decoders[0]
        self.columns = decoder.columns
        self.banks = decoder.banks
        self.rows = decoder.rows
        self.banks_per_group = banks_per_group
        self._terms = _level_terms(self.levels,
                                   layout._rank_geometry.levels,
                                   layout.subtree_levels,
                                   self.lines_per_bucket, self.rank_levels)
        self._cache: Dict[Tuple[int, int], PathPattern] = {}

    def pattern(self, leaf: int, skip_levels: int) -> PathPattern:
        key = (leaf, skip_levels)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        levels = self.levels
        rank_levels = self.rank_levels
        lines_per_bucket = self.lines_per_bucket
        columns = self.columns
        banks = self.banks
        rows = self.rows
        rank = leaf >> (levels - 1 - rank_levels)
        first_level = skip_levels if skip_levels > rank_levels else rank_levels
        ranges: list = []
        last_end = -1
        for shift, in_band, mask, const, mult, pos_mask in \
                self._terms[first_level - rank_levels:]:
            position = (leaf >> shift) & pos_mask
            base = (const + (position >> in_band) * mult
                    + (position & mask) * lines_per_bucket)
            if base == last_end:
                last_end = ranges[-1][1] = base + lines_per_bucket
            else:
                last_end = base + lines_per_bucket
                ranges.append([base, last_end])
        runs: list = []
        runs5: list = []
        for begin, end in ranges:
            line = begin
            remaining = end - begin
            while remaining > 0:
                column = line % columns
                rest = line // columns
                bank = rest % banks
                row = (rest // banks) % rows
                take = columns - column
                if take > remaining:
                    take = remaining
                runs.append((0, rank, bank, row, column, take))
                runs5.append((rank, bank, row, column, take))
                line += take
                remaining -= take
        pattern = PathPattern(tuple(runs), self.banks_per_group,
                              tuple(runs5), ((0, rank),))
        if memo.CORE.memo:
            if len(self._cache) >= DEFAULT_MEMO_CAP:
                self._cache.clear()
            self._cache[key] = pattern
        return pattern
