"""Tests for configuration dataclasses and Table II presets."""

import dataclasses

import pytest

from repro.config import (
    CpuConfig,
    DesignPoint,
    DramOrganization,
    DramPower,
    DramTiming,
    OramConfig,
    SchedulerConfig,
    SdimmConfig,
    small_config,
    table2_config,
)


class TestDramOrganization:
    def test_table2_capacity_is_16gb_per_channel(self):
        org = DramOrganization()
        assert org.channel_bytes == 16 * 2**30

    def test_rank_capacity(self):
        org = DramOrganization()
        assert org.rank_bytes == 2 * 2**30

    def test_ranks_per_channel(self):
        assert DramOrganization().ranks_per_channel == 8

    def test_rejects_non_power_of_two_banks(self):
        org = dataclasses.replace(DramOrganization(), banks_per_rank=6)
        with pytest.raises(ValueError):
            org.validate()


class TestDramTiming:
    def test_default_is_consistent(self):
        DramTiming().validate()

    def test_rejects_short_trc(self):
        timing = dataclasses.replace(DramTiming(), trc=10)
        with pytest.raises(ValueError):
            timing.validate()


class TestDramPower:
    def test_default_is_consistent(self):
        DramPower().validate()

    def test_on_dimm_io_must_be_cheaper(self):
        power = dataclasses.replace(DramPower(), io_on_dimm_pj_per_bit=9.0)
        with pytest.raises(ValueError):
            power.validate()


class TestOramConfig:
    def test_tree_geometry(self):
        oram = OramConfig(levels=4)
        assert oram.leaf_count == 8
        assert oram.bucket_count == 15

    def test_lines_per_bucket_includes_metadata(self):
        assert OramConfig().lines_per_bucket == 5

    def test_path_lines_excludes_cached_levels(self):
        oram = OramConfig(levels=28, cached_levels=7)
        assert oram.path_lines == 21 * 5

    def test_rejects_caching_everything(self):
        oram = OramConfig(levels=5, cached_levels=5)
        with pytest.raises(ValueError):
            oram.validate()

    def test_rejects_tiny_stash(self):
        oram = OramConfig(levels=28, stash_capacity=10)
        with pytest.raises(ValueError):
            oram.validate()

    def test_with_levels(self):
        assert OramConfig().with_levels(20).levels == 20


class TestSchedulerConfig:
    def test_paper_watermarks(self):
        config = SchedulerConfig()
        assert config.write_queue_capacity == 64
        assert config.write_drain_high == 40

    def test_rejects_inverted_watermarks(self):
        config = SchedulerConfig(write_drain_high=5, write_drain_low=10)
        with pytest.raises(ValueError):
            config.validate()


class TestSystemConfig:
    def test_table2_single_channel(self):
        config = table2_config(channels=1)
        assert config.total_memory_bytes == 16 * 2**30
        assert config.oram.levels == 27

    def test_table2_double_channel(self):
        config = table2_config(channels=2)
        assert config.total_memory_bytes == 32 * 2**30
        assert config.oram.levels == 28

    def test_sdimm_count_for_designs(self):
        assert table2_config(DesignPoint.FREECURSIVE).sdimm_count == 0
        assert table2_config(DesignPoint.INDEP_2, channels=1).sdimm_count == 2
        assert table2_config(DesignPoint.INDEP_SPLIT,
                             channels=2).sdimm_count == 4

    def test_indep4_requires_two_channels(self):
        with pytest.raises(ValueError):
            table2_config(DesignPoint.INDEP_4, channels=1)

    def test_cache_disabled_zeroes_effective_levels(self):
        config = table2_config(oram_cache_enabled=False)
        assert config.effective_cached_levels == 0

    def test_small_config_validates(self):
        config = small_config(levels=10)
        config.validate()
        assert config.oram.levels == 10

    def test_cpu_defaults_match_table2(self):
        cpu = CpuConfig()
        assert cpu.llc_bytes == 2 * 2**20
        assert cpu.llc_assoc == 8

    def test_sdimm_config_validates(self):
        SdimmConfig().validate()

    def test_sdimm_rejects_bad_drain_probability(self):
        with pytest.raises(ValueError):
            SdimmConfig(drain_probability=1.5).validate()

    def test_designs_are_unique_strings(self):
        values = [design.value for design in DesignPoint]
        assert len(values) == len(set(values))
