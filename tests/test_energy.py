"""Tests for the DRAM energy model and the buffer-chip area model."""

import pytest

from repro.config import (
    DesignPoint,
    SdimmConfig,
    SystemConfig,
    table2_config,
)
from repro.energy.area import (
    oram_controller_area_mm2,
    sdimm_buffer_area_mm2,
    sram_area_mm2,
)
from repro.energy.dram_power import DramEnergyModel, EnergyReport
from repro.sim.system import run_simulation


def make_model():
    return DramEnergyModel(SystemConfig())


class TestPerEventEnergies:
    def test_all_positive(self):
        summary = make_model().per_access_summary()
        assert all(value > 0 for value in summary.values())

    def test_write_burst_costs_more_than_read(self):
        model = make_model()
        assert model.burst_energy_pj(True) > model.burst_energy_pj(False)

    def test_on_dimm_io_cheaper(self):
        model = make_model()
        assert model.io_energy_pj(10, on_dimm=True) < \
            model.io_energy_pj(10, on_dimm=False)

    def test_background_ordering(self):
        """active > standby > power-down; self-refresh lowest-ish."""
        model = make_model()
        assert model.background_power_mw("active") > \
            model.background_power_mw("standby") > \
            model.background_power_mw("power-down")

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError):
            make_model().background_power_mw("hibernate")

    def test_activate_magnitude_sane(self):
        """Activating a full 8 KB DDR3 row costs tens of nanojoules."""
        assert 5_000 < make_model().activate_energy_pj() < 100_000


class TestEnergyReport:
    def test_total_sums_categories(self):
        report = EnergyReport(activate_pj=1, read_write_pj=2, refresh_pj=3,
                              background_pj=4, io_pj=5)
        assert report.total_pj == 15

    def test_normalization(self):
        a = EnergyReport(io_pj=100)
        b = EnergyReport(io_pj=50)
        assert b.normalized_to(a) == 0.5
        with pytest.raises(ValueError):
            a.normalized_to(EnergyReport())

    def test_as_dict_keys(self):
        keys = set(EnergyReport().as_dict())
        assert "total_pj" in keys and "io_pj" in keys


class TestEndToEndEnergy:
    """The Figure 10 direction: SDIMM designs use much less memory energy."""

    TRACE = 2500

    def run_energy(self, design, channels=1):
        config = table2_config(design, channels=channels)
        result = run_simulation(config, "mcf", trace_length=self.TRACE)
        return DramEnergyModel(config).report(result)

    def test_freecursive_costs_much_more_than_nonsecure(self):
        nonsecure = self.run_energy(DesignPoint.NONSECURE)
        freecursive = self.run_energy(DesignPoint.FREECURSIVE)
        assert freecursive.total_pj > 2 * nonsecure.total_pj

    def test_sdimm_beats_freecursive(self):
        """Figure 10: SPLIT-2 improves memory energy ~2.4x over
        Freecursive (single channel)."""
        freecursive = self.run_energy(DesignPoint.FREECURSIVE)
        split = self.run_energy(DesignPoint.SPLIT_2)
        ratio = freecursive.total_pj / split.total_pj
        assert ratio > 1.5

    def test_independent_io_stays_on_dimm(self):
        independent = self.run_energy(DesignPoint.INDEP_2)
        freecursive = self.run_energy(DesignPoint.FREECURSIVE)
        assert independent.io_pj < 0.6 * freecursive.io_pj


class TestAreaModel:
    def test_reference_points(self):
        assert sram_area_mm2(8 * 1024, 32) == pytest.approx(0.42)
        assert oram_controller_area_mm2(32) == pytest.approx(0.47)

    def test_paper_claim_under_one_mm2(self):
        assert sdimm_buffer_area_mm2(SdimmConfig(), 32) < 1.0

    def test_area_scales_with_capacity(self):
        assert sram_area_mm2(64 * 1024) > sram_area_mm2(8 * 1024)

    def test_area_scales_with_technology(self):
        assert sram_area_mm2(8 * 1024, 45) > sram_area_mm2(8 * 1024, 32)
        assert sram_area_mm2(8 * 1024, 22) < sram_area_mm2(8 * 1024, 32)

    def test_sublinear_capacity(self):
        """Doubling capacity less than doubles area (periphery amortizes)."""
        assert sram_area_mm2(16 * 1024) < 2 * sram_area_mm2(8 * 1024)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            sram_area_mm2(0)
        with pytest.raises(ValueError):
            sram_area_mm2(1024, 0)
