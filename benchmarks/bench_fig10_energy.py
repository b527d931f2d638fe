"""Figure 10 reproduction: memory energy overhead vs a non-secure baseline.

Paper: "Compared to Freecursive, SPLIT-2 and INDEP-SPLIT improve memory
energy efficiency by 2.4x and 2.5x, respectively" (single- and
double-channel best designs, combining on-DIMM I/O savings with the
Section III-E low-power rank technique).
"""

import pytest

from repro.config import DesignPoint, table2_config
from repro.energy.dram_power import DramEnergyModel
from repro.sim.stats import geometric_mean

from _harness import WORKLOADS, emit, print_header, run_cached


def energy_of(design, workload, channels):
    config = table2_config(design, channels=channels)
    result = run_cached(design, workload, channels)
    return DramEnergyModel(config).report(result)


@pytest.mark.parametrize("channels,sdimm_design,paper_factor", [
    (1, DesignPoint.SPLIT_2, 2.4),
    (2, DesignPoint.INDEP_SPLIT, 2.5),
])
def test_fig10_energy(benchmark, channels, sdimm_design, paper_factor):
    def sweep():
        rows = {}
        for workload in WORKLOADS:
            nonsecure = energy_of(DesignPoint.NONSECURE, workload, channels)
            freecursive = energy_of(DesignPoint.FREECURSIVE, workload,
                                    channels)
            sdimm = energy_of(sdimm_design, workload, channels)
            rows[workload] = (
                freecursive.normalized_to(nonsecure),
                sdimm.normalized_to(nonsecure),
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print_header(f"Figure 10 ({channels}-channel): memory energy overhead "
                 f"normalized to non-secure",
                 ["freec", sdimm_design.value[:7]])
    for workload, (freecursive, sdimm) in sorted(rows.items()):
        emit(f"  {workload:12s} {freecursive:6.1f} {sdimm:7.1f}")
    fc_mean = geometric_mean([f for f, _ in rows.values()])
    sd_mean = geometric_mean([s for _, s in rows.values()])
    improvement = fc_mean / sd_mean
    emit(f"  {'geomean':12s} {fc_mean:6.1f} {sd_mean:7.1f}")
    emit(f"  energy improvement over Freecursive: {improvement:.2f}x "
         f"(paper: {paper_factor}x)")

    assert improvement > 1.4, "SDIMM must clearly improve memory energy"


def test_energy_breakdown_story(benchmark):
    """The mechanism behind Figure 10: I/O moves on-DIMM and background
    power drops with the low-power rank layout."""
    def compute():
        freecursive = energy_of(DesignPoint.FREECURSIVE, WORKLOADS[0], 1)
        sdimm = energy_of(DesignPoint.SPLIT_2, WORKLOADS[0], 1)
        return freecursive, sdimm

    freecursive, sdimm = benchmark.pedantic(compute, rounds=1, iterations=1)
    emit("")
    emit("  Energy breakdown (pJ), first workload, 1 channel:")
    emit(f"  {'component':16s} {'freecursive':>14s} {'split-2':>14s}")
    for key in ("activate_pj", "read_write_pj", "refresh_pj",
                "background_pj", "io_pj", "total_pj"):
        emit(f"  {key:16s} {freecursive.as_dict()[key]:14.3e} "
             f"{sdimm.as_dict()[key]:14.3e}")
    assert sdimm.io_pj < freecursive.io_pj
    assert sdimm.background_pj < freecursive.background_pj
