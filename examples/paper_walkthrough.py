#!/usr/bin/env python
"""The whole paper in one run: miniature versions of every result.

Regenerates a small-scale rendition of each evaluation artifact — the
slowdown of Figure 6, the design comparisons of Figures 8/9 as ASCII bar
charts, the overflow curves of Figure 13, the off-DIMM traffic ratios,
and the area/energy claims — in a couple of minutes of pure Python.  For
the full-scale versions run ``pytest benchmarks/ --benchmark-only``.

Run:  python examples/paper_walkthrough.py [trace_length]
"""

import sys

from repro import (
    DesignPoint,
    DramEnergyModel,
    SdimmConfig,
    geometric_mean,
    run_simulation,
    table2_config,
)
from repro.analysis.queueing import transfer_queue_overflow_probability
from repro.analysis.random_walk import displacement_curve
from repro.analysis.traffic import independent_traffic, split_traffic
from repro.config import OramConfig
from repro.energy.area import sdimm_buffer_area_mm2
from repro.report import bar_chart, line_chart

WORKLOADS = ("mcf", "gromacs", "GemsFDTD")


def run_all(channels, designs, trace_length):
    results = {}
    for design in designs:
        per_workload = []
        for workload in WORKLOADS:
            config = table2_config(design, channels=channels)
            per_workload.append(run_simulation(config, workload,
                                               trace_length=trace_length))
        results[design] = per_workload
    return results


def geomean_cycles(runs):
    return geometric_mean([float(run.execution_cycles) for run in runs])


def main() -> None:
    trace_length = int(sys.argv[1]) if len(sys.argv) > 1 else 2500

    print("Figure 6 - the cost of obliviousness " + "=" * 30)
    designs_1ch = (DesignPoint.NONSECURE, DesignPoint.FREECURSIVE,
                   DesignPoint.INDEP_2, DesignPoint.SPLIT_2)
    one_channel = run_all(1, designs_1ch, trace_length)
    slowdown = (geomean_cycles(one_channel[DesignPoint.FREECURSIVE]) /
                geomean_cycles(one_channel[DesignPoint.NONSECURE]))
    print(f"  Freecursive ORAM runs {slowdown:.1f}x slower than non-secure "
          f"(paper: 8.8x, 1 channel)\n")

    print("Figures 8/9 - what SDIMMs buy back " + "=" * 33)
    baseline = geomean_cycles(one_channel[DesignPoint.FREECURSIVE])
    rows = [(design.value,
             geomean_cycles(one_channel[design]) / baseline)
            for design in (DesignPoint.FREECURSIVE, DesignPoint.INDEP_2,
                           DesignPoint.SPLIT_2)]
    print(bar_chart("  1 channel, normalized execution time", rows))
    designs_2ch = (DesignPoint.FREECURSIVE, DesignPoint.INDEP_4,
                   DesignPoint.SPLIT_4, DesignPoint.INDEP_SPLIT)
    two_channel = run_all(2, designs_2ch, trace_length)
    baseline2 = geomean_cycles(two_channel[DesignPoint.FREECURSIVE])
    rows = [(design.value, geomean_cycles(two_channel[design]) / baseline2)
            for design in designs_2ch]
    print(bar_chart("  2 channels, normalized execution time", rows))
    print()

    print("Figure 10 - memory energy " + "=" * 41)
    config = table2_config(DesignPoint.FREECURSIVE, channels=1)
    model = DramEnergyModel(config)
    freecursive_energy = sum(
        model.report(run).total_pj
        for run in one_channel[DesignPoint.FREECURSIVE])
    split_energy = sum(model.report(run).total_pj
                       for run in one_channel[DesignPoint.SPLIT_2])
    print(f"  SPLIT-2 uses {freecursive_energy / split_energy:.2f}x less "
          f"memory energy than Freecursive (paper: 2.4x)\n")

    print("Section IV-B - off-DIMM traffic " + "=" * 35)
    oram = OramConfig(levels=28, cached_levels=7)
    indep = independent_traffic(oram, SdimmConfig(), 2, 7)
    split = split_traffic(oram, 2, 7)
    print(f"  INDEP-2 moves {indep.fraction_of_baseline:.1%} of baseline "
          f"off-DIMM accesses (paper: 4.2%)")
    print(f"  SPLIT   moves {split.fraction_of_baseline:.1%} "
          f"(paper: 12%)\n")

    print("Figure 13 - sizing the transfer queue " + "=" * 29)
    steps = 200_000
    print(line_chart(
        f"  P(queue exceeded) over {steps:,} undrained steps",
        {str(size): [(0, 0.0)] + displacement_curve(size, steps, points=8)
         for size in (16, 64, 256, 1024)}, width=48, height=8))
    overflow = transfer_queue_overflow_probability(0.05, 128)
    print(f"  ...but with drain probability 0.05 and the paper's 8 KB "
          f"buffer: P(overflow) = {overflow:.1e}\n")

    print("Section IV-B - the buffer chip " + "=" * 36)
    print(f"  secure buffer area at 32 nm: "
          f"{sdimm_buffer_area_mm2(SdimmConfig()):.2f} mm^2 "
          f"(paper: < 1 mm^2)")


if __name__ == "__main__":
    main()
