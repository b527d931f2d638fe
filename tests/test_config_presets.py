"""Tests for extended configuration presets (DDR4) and design helpers."""

import dataclasses

from repro.config import (
    DOUBLE_CHANNEL_DESIGNS,
    SINGLE_CHANNEL_DESIGNS,
    DesignPoint,
    DramOrganization,
    ddr4_timing,
    table2_config,
)
from repro.dram.address import DecodedAddress
from repro.dram.channel import Channel
from repro.sim.system import run_simulation


class TestDdr4Preset:
    def test_validates(self):
        ddr4_timing().validate()

    def test_faster_clock_than_ddr3(self):
        from repro.config import DramTiming
        assert ddr4_timing().tck_ns < DramTiming().tck_ns

    def test_longer_refresh_stall(self):
        from repro.config import DramTiming
        assert ddr4_timing().trfc > DramTiming().trfc

    def test_channel_schedules_with_ddr4(self):
        channel = Channel(ddr4_timing(), DramOrganization(), scale=1)
        timing = channel.schedule_access(DecodedAddress(0, 0, 0, 0),
                                         False, 0)
        assert timing.data_start == ddr4_timing().trcd + ddr4_timing().tcl

    def test_full_system_runs_on_ddr4(self):
        config = table2_config(DesignPoint.FREECURSIVE, channels=1)
        config = dataclasses.replace(config, timing=ddr4_timing())
        config.validate()
        result = run_simulation(config, "gromacs", trace_length=1200)
        assert result.execution_cycles > 0

    def test_ddr4_higher_bandwidth_helps_oram(self):
        """Same memory-clock parameters but a faster clock: at equal
        CPU-cycle scale the DDR4 sim moves the same bursts, so this checks
        the *relative* sanity: DDR4's deeper timings cost more cycles per
        isolated access."""
        ddr3 = Channel(
            __import__("repro.config", fromlist=["DramTiming"]).DramTiming(),
            DramOrganization(), scale=1)
        ddr4 = Channel(ddr4_timing(), DramOrganization(), scale=1)
        t3 = ddr3.schedule_access(DecodedAddress(0, 0, 0, 0), False, 0)
        t4 = ddr4.schedule_access(DecodedAddress(0, 0, 0, 0), False, 0)
        assert t4.data_start > t3.data_start  # more cycles...
        # ...but fewer nanoseconds per cycle
        assert ddr4_timing().tck_ns * t4.data_start < \
            1.25 * 1.1 * t3.data_start


class TestDesignGroups:
    def test_single_channel_designs(self):
        assert DesignPoint.INDEP_2 in SINGLE_CHANNEL_DESIGNS
        assert DesignPoint.SPLIT_2 in SINGLE_CHANNEL_DESIGNS

    def test_double_channel_designs(self):
        assert DesignPoint.INDEP_SPLIT in DOUBLE_CHANNEL_DESIGNS
        assert len(DOUBLE_CHANNEL_DESIGNS) == 3

    def test_groups_disjoint(self):
        assert not set(SINGLE_CHANNEL_DESIGNS) & set(DOUBLE_CHANNEL_DESIGNS)
