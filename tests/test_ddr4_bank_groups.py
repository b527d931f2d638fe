"""Tests for DDR4 bank-group CAS pacing (tCCD_L vs tCCD_S)."""

from repro.config import (
    DramOrganization,
    DramTiming,
    ddr4_organization,
    ddr4_timing,
)
from repro.dram.address import DecodedAddress
from repro.dram.channel import Channel


def ddr4_channel():
    return Channel(ddr4_timing(), ddr4_organization(), scale=1)


class TestBankGroupPacing:
    def test_same_group_pays_tccd_l(self):
        """Back-to-back CAS to two banks of one group space at tCCD_L."""
        channel = ddr4_channel()
        # banks 0 and 1 share group 0 (4 banks per group)
        first = channel.schedule_access(DecodedAddress(0, 0, 0, 0),
                                        False, 0)
        second = channel.schedule_access(DecodedAddress(0, 1, 0, 0),
                                         False, 0)
        assert second.cas_issue - first.cas_issue >= ddr4_timing().tccd_l

    def test_cross_group_streams_at_burst_rate(self):
        """Banks in different groups stream gaplessly (tCCD_S = tBURST)."""
        channel = ddr4_channel()
        # open both rows first so only CAS pacing is measured
        channel.schedule_access(DecodedAddress(0, 0, 0, 0), False, 0)
        channel.schedule_access(DecodedAddress(0, 4, 0, 0), False, 0)
        first = channel.schedule_access(DecodedAddress(0, 0, 0, 1),
                                        False, 1000)
        second = channel.schedule_access(DecodedAddress(0, 4, 0, 1),
                                         False, 1000)  # bank 4 = group 1
        assert second.data_start == first.data_end

    def test_same_bank_run_paces_at_tccd_l(self):
        """A streaming run inside one bank leaves DDR4's tCCD_L bubbles."""
        channel = ddr4_channel()
        timing = channel.schedule_run(DecodedAddress(0, 0, 0, 0), 10,
                                      False, 0)
        ddr4 = ddr4_timing()
        expected = 9 * ddr4.tccd_l + ddr4.tburst
        assert timing.data_end - timing.data_start == expected

    def test_ddr3_unaffected(self):
        """DDR3 (one bank group, tCCD_L = tBURST) streams gaplessly."""
        channel = Channel(DramTiming(), DramOrganization(), scale=1)
        timing = channel.schedule_run(DecodedAddress(0, 0, 0, 0), 10,
                                      False, 0)
        assert timing.data_end - timing.data_start == 10 * 4

    def test_organization_preset(self):
        org = ddr4_organization()
        assert org.banks_per_rank == 16
        assert org.bank_groups == 4
        org.validate()

    def test_oram_burst_slower_per_cycle_on_ddr4_same_bank(self):
        """The bank-group penalty is why ORAM layouts should spread
        consecutive lines across groups on DDR4 — quantified here."""
        ddr3_channel = Channel(DramTiming(), DramOrganization(), scale=1)
        ddr4 = ddr4_channel()
        ddr3_run = ddr3_channel.schedule_run(DecodedAddress(0, 0, 0, 0),
                                             64, False, 0)
        ddr4_run = ddr4.schedule_run(DecodedAddress(0, 0, 0, 0), 64,
                                     False, 0)
        ddr3_cycles = ddr3_run.data_end - ddr3_run.data_start
        ddr4_cycles = ddr4_run.data_end - ddr4_run.data_start
        assert ddr4_cycles > ddr3_cycles  # in cycles
        # but DDR4's faster clock still wins in nanoseconds
        assert ddr4_cycles * ddr4_timing().tck_ns < \
            ddr3_cycles * DramTiming().tck_ns * 1.1
