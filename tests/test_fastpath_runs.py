"""Content equality of the fastpath pattern producers vs the layouts.

:mod:`repro.fastpath.runs` re-derives the layouts' ``path_runs`` with
flat integer arithmetic and emits row segments — maximal stretches of
consecutive runs of one channel on one (rank, bank, row).  These tests
pin that every produced segment, down to its sub-run counts, equals the
layout's run list merged by (rank, bank, row) with a test-side reference
(:func:`_merge_segments`), across the real Table II geometry (1 and 2
channels), the small test geometry, and the low-power
one-subtree-per-rank layout — for every skip level and a broad sample of
leaves.  Also covered: the :class:`PathPattern` metadata the access core
consumes (touched ranks, per-channel grouping with emission slots, the
Split slice shares) against first-principles recomputation.
"""

from dataclasses import replace

import pytest

from repro.config import DesignPoint, small_config, table2_config
from repro.fastpath.runs import FastLowPowerRuns, FastTreeRuns
from repro.oram.layout import LowPowerLayout, TreeLayout
from repro.oram.tree import TreeGeometry
from repro.sim.backends import SdimmDevice


def _sample_leaves(leaf_count):
    """Edge leaves plus a deterministic spread, unique and in range."""
    picks = {0, 1, 2, leaf_count - 1, leaf_count - 2, leaf_count // 2,
             leaf_count // 3}
    for bit in range(leaf_count.bit_length() - 1):
        picks.update({(1 << bit) - 1, 1 << bit, (1 << bit) + 1})
    step = max(1, leaf_count // 61)
    picks.update(range(0, leaf_count, step))
    return sorted(leaf for leaf in picks if 0 <= leaf < leaf_count)


def _merge_segments(runs):
    """Consecutive ``(address, count)`` runs merged by (rank, bank, row).

    The reference definition of a row segment:
    ``(rank, bank, row, lines, counts)``.
    """
    segments = []
    for address, count in runs:
        key = (address.rank, address.bank, address.row)
        if segments and segments[-1][:3] == key:
            last = segments[-1]
            segments[-1] = key + (last[3] + count, last[4] + (count,))
        else:
            segments.append(key + (count, (count,)))
    return tuple(segments)


def _layout_per_channel(layout, leaf, skip):
    """TreeLayout.path_runs as ``(channel, segments, slots)`` parts.

    ``slots`` are each channel's run indices in the layout's emission
    order; ``None`` when the path touches one channel only.
    """
    runs = layout.path_runs(leaf, skip)
    parts = {}
    for index, (channel, address, count) in enumerate(runs):
        part = parts.setdefault(channel, ([], []))
        part[0].append((address, count))
        part[1].append(index)
    if len(parts) == 1:
        channel, (channel_runs, _) = next(iter(parts.items()))
        return ((channel, _merge_segments(channel_runs), None),)
    return tuple((channel, _merge_segments(channel_runs), tuple(slots))
                 for channel, (channel_runs, slots) in parts.items())


def _tree_cases():
    for label, config in (
            ("table2-1ch", table2_config(DesignPoint.FREECURSIVE,
                                         channels=1)),
            ("table2-2ch", table2_config(DesignPoint.FREECURSIVE,
                                         channels=2)),
            ("small", small_config(DesignPoint.FREECURSIVE))):
        geometry = TreeGeometry(config.oram.levels)
        layout = TreeLayout(geometry, config.oram, config.organization,
                            config.channels)
        organization = config.organization
        banks_per_group = (organization.banks_per_rank //
                           organization.bank_groups)
        yield label, config, geometry, layout, banks_per_group


TREE_CASES = list(_tree_cases())


@pytest.fixture(scope="module")
def lowpower_case():
    config = table2_config(DesignPoint.INDEP_2, channels=1)
    organization = replace(config.organization, dimms_per_channel=1)
    levels = config.oram.levels - 3  # an SDIMM-local subtree
    geometry = TreeGeometry(levels)
    oram = replace(config.oram, levels=levels)
    layout = LowPowerLayout(geometry, oram, organization)
    banks_per_group = (organization.banks_per_rank //
                       organization.bank_groups)
    return geometry, layout, banks_per_group


@pytest.mark.parametrize("label,config,geometry,layout,banks_per_group",
                         TREE_CASES, ids=[case[0] for case in TREE_CASES])
class TestTreeRunsEquality:
    def test_runs_match_layout_everywhere(self, label, config, geometry,
                                          layout, banks_per_group):
        fast = FastTreeRuns(layout, banks_per_group)
        leaves = _sample_leaves(geometry.leaf_count)
        skips = sorted({0, 1, config.effective_cached_levels,
                        config.oram.levels - 1})
        checked = runs = segments = 0
        for skip in skips:
            for leaf in leaves:
                pattern = fast.pattern(leaf, skip)
                expected = _layout_per_channel(layout, leaf, skip)
                assert pattern.per_channel == expected, \
                    f"{label}: leaf={leaf} skip={skip}"
                assert pattern.run_count == len(layout.path_runs(leaf, skip))
                runs += pattern.run_count
                segments += sum(len(part[1]) for part in expected)
                checked += 1
        assert checked >= len(leaves)
        # the packing puts a band's buckets in one row: segments merge runs
        assert segments < runs

    def test_pattern_metadata_is_consistent(self, label, config, geometry,
                                            layout, banks_per_group):
        fast = FastTreeRuns(layout, banks_per_group)
        skip = config.effective_cached_levels
        for leaf in _sample_leaves(geometry.leaf_count)[:24]:
            pattern = fast.pattern(leaf, skip)
            runs = [(channel, address.rank, address.bank, address.row,
                     count)
                    for channel, address, count in layout.path_runs(leaf,
                                                                    skip)]
            # touched ranks: exact set, one entry per (channel, rank)
            assert sorted(pattern.sig_ranks) == sorted(
                {(run[0], run[1]) for run in runs})
            # per-channel grouping covers every run exactly once, in order
            rebuilt = [None] * len(runs)
            for channel, segments, slots in pattern.per_channel:
                sub_runs = [(channel, rank, bank, row, count)
                            for rank, bank, row, lines, counts in segments
                            for count in counts]
                for rank, bank, row, lines, counts in segments:
                    assert lines == sum(counts)
                if slots is None:
                    assert len(pattern.per_channel) == 1
                    slots = range(len(sub_runs))
                for slot, run in zip(slots, sub_runs):
                    rebuilt[slot] = run
            assert rebuilt == runs
            # first-touch banks and touched groups
            assert sorted(pattern.sig_banks) == sorted(
                (ch, rank, bank,
                 next(run[3] for run in runs
                      if run[0] == ch and run[1] == rank and run[2] == bank))
                for ch, rank, bank in {(run[0], run[1], run[2])
                                       for run in runs})
            assert sorted(pattern.sig_groups) == sorted(
                {(run[0], run[1], run[2] // banks_per_group)
                 for run in runs})

    def test_patterns_are_memoized(self, label, config, geometry, layout,
                                   banks_per_group):
        fast = FastTreeRuns(layout, banks_per_group)
        first = fast.pattern(3, 0)
        assert fast.pattern(3, 0) is first


def _expected_shares(path_runs, ways):
    return tuple(_merge_segments(SdimmDevice.slice_runs(path_runs, way,
                                                        ways))
                 for way in range(ways))


class TestSliceShares:
    def test_slices_match_sdimm_slice_runs(self, lowpower_case):
        """Each way's share equals ``slice_runs`` merged per way.

        Slicing is per sub-run: 5 + 5 lines over 2 ways is 3 + 3 / 2 + 2,
        not 5 / 5.
        """
        single = [case for case in TREE_CASES if case[1].channels == 1]
        for label, config, geometry, layout, banks_per_group in single:
            fast = FastTreeRuns(layout, banks_per_group)
            for skip in (0, config.effective_cached_levels):
                for leaf in _sample_leaves(geometry.leaf_count)[::3]:
                    pattern = fast.pattern(leaf, skip)
                    path_runs = [(address, count) for _channel, address, count
                                 in layout.path_runs(leaf, skip)]
                    for ways in (2, 4):
                        assert pattern.slices(ways) == \
                            _expected_shares(path_runs, ways), \
                            f"{label}: leaf={leaf} skip={skip} ways={ways}"
        geometry, layout, banks_per_group = lowpower_case
        fast = FastLowPowerRuns(layout, banks_per_group)
        for skip in (0, layout.rank_levels + 1):
            for leaf in _sample_leaves(geometry.leaf_count)[::3]:
                pattern = fast.pattern(leaf, skip)
                path_runs = list(layout.path_runs(leaf, skip))
                for ways in (2, 4):
                    assert pattern.slices(ways) == \
                        _expected_shares(path_runs, ways), \
                        f"lowpower: leaf={leaf} skip={skip} ways={ways}"

    def test_slices_are_memoized(self):
        label, config, geometry, layout, banks_per_group = TREE_CASES[-1]
        fast = FastTreeRuns(layout, banks_per_group)
        pattern = fast.pattern(1, 0)
        assert pattern.slices(2) is pattern.slices(2)

    def test_slices_split_each_sub_run(self):
        """A 5 + 5 segment over 2 ways is 3 + 3 and 2 + 2 lines."""
        label, config, geometry, layout, banks_per_group = TREE_CASES[0]
        fast = FastTreeRuns(layout, banks_per_group)
        for leaf in _sample_leaves(geometry.leaf_count):
            pattern = fast.pattern(leaf, 0)
            segment = next((segment for segment in pattern.per_channel[0][1]
                            if segment[4] == (5, 5)), None)
            if segment is not None:
                break
        assert segment is not None
        index = pattern.per_channel[0][1].index(segment)
        first, second = pattern.slices(2)
        assert first[index][3:] == (6, (3, 3))
        assert second[index][3:] == (4, (2, 2))


class TestLowPowerRunsEquality:
    def test_runs_match_layout_everywhere(self, lowpower_case):
        geometry, layout, banks_per_group = lowpower_case
        fast = FastLowPowerRuns(layout, banks_per_group)
        skips = sorted({0, 1, layout.rank_levels, layout.rank_levels + 1,
                        geometry.levels - 1})
        for skip in skips:
            for leaf in _sample_leaves(geometry.leaf_count):
                pattern = fast.pattern(leaf, skip)
                segments = _merge_segments(layout.path_runs(leaf, skip))
                expected = ((0, segments, None),) if segments else ()
                assert pattern.per_channel == expected, \
                    f"leaf={leaf} skip={skip}"

    def test_single_rank_invariant(self, lowpower_case):
        geometry, layout, banks_per_group = lowpower_case
        fast = FastLowPowerRuns(layout, banks_per_group)
        for leaf in _sample_leaves(geometry.leaf_count)[:32]:
            pattern = fast.pattern(leaf, 0)
            owner = layout.rank_of_leaf(leaf)
            assert pattern.sig_ranks == ((0, owner),)
            assert {segment[0] for segment in pattern.per_channel[0][1]} \
                == {owner}
