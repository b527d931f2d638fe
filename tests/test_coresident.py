"""Tests for the co-resident VM experiment (the paper's claim III-A.3)."""

from repro.config import DesignPoint
from repro.sim.coresident import CoResidentExperiment, compare_designs


class TestCoResident:
    def test_runs_for_every_design(self):
        for design in (DesignPoint.NONSECURE, DesignPoint.FREECURSIVE,
                       DesignPoint.INDEP_2, DesignPoint.SPLIT_2):
            result = CoResidentExperiment(design).run(oram_requests=40,
                                                      vm_requests=40)
            assert result.vm_latency.count == 40
            assert result.mean_latency > 0

    def test_freecursive_load_crushes_vm_latency(self):
        """Under Freecursive the VM shares the bus with path bursts."""
        floor = CoResidentExperiment(DesignPoint.NONSECURE).run(
            oram_requests=40, vm_requests=60)
        loaded = CoResidentExperiment(DesignPoint.FREECURSIVE).run(
            oram_requests=40, vm_requests=60)
        assert loaded.mean_latency > 3 * floor.mean_latency

    def test_sdimm_protects_the_vm(self):
        """The paper's claim: an SDIMM 'does not negatively impact the
        bandwidth available to a co-resident VM'."""
        freecursive = CoResidentExperiment(DesignPoint.FREECURSIVE).run(
            oram_requests=40, vm_requests=60)
        independent = CoResidentExperiment(DesignPoint.INDEP_2).run(
            oram_requests=40, vm_requests=60)
        assert independent.mean_latency < 0.5 * freecursive.mean_latency

    def test_split_between_the_two(self):
        """Split puts metadata on the bus: more VM impact than INDEP,
        far less than Freecursive."""
        freecursive = CoResidentExperiment(DesignPoint.FREECURSIVE).run(
            oram_requests=40, vm_requests=60)
        split = CoResidentExperiment(DesignPoint.SPLIT_2).run(
            oram_requests=40, vm_requests=60)
        independent = CoResidentExperiment(DesignPoint.INDEP_2).run(
            oram_requests=40, vm_requests=60)
        assert independent.mean_latency <= split.mean_latency
        assert split.mean_latency < freecursive.mean_latency

    def test_compare_designs_helper(self):
        results = compare_designs(
            designs=(DesignPoint.NONSECURE, DesignPoint.INDEP_2))
        assert [result.design for result in results] == \
            ["nonsecure", "indep-2"]

    def test_oram_load_actually_ran(self):
        result = CoResidentExperiment(DesignPoint.FREECURSIVE).run(
            oram_requests=30, vm_requests=10)
        assert result.oram_accesses >= 30
