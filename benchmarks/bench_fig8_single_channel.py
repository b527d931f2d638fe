"""Figure 8 reproduction: single-channel SDIMM designs vs Freecursive.

Paper: "For the single-channel memory, with caching the first few layers
of ORAM, these approaches reduce execution time by 32% and 33.5% ...
Without the help of ORAM caching, SDIMM-based systems reduce execution
time by around 35.7%."
"""

import pytest

from repro.config import DesignPoint, SINGLE_CHANNEL_DESIGNS as DESIGNS
from repro.sim.stats import geometric_mean

from _harness import WORKLOADS, emit, print_header, run_cached


@pytest.mark.parametrize("cache_enabled,paper_note", [
    (True, "paper: INDEP-2 -32%, SPLIT-2 -33.5%"),
    (False, "paper: ~-35.7% without ORAM caching"),
])
def test_fig8_single_channel(benchmark, cache_enabled, paper_note):
    def sweep():
        rows = {}
        for workload in WORKLOADS:
            baseline = run_cached(DesignPoint.FREECURSIVE, workload, 1,
                                  cache_enabled)
            rows[workload] = [
                run_cached(design, workload, 1,
                           cache_enabled).normalized_time(baseline)
                for design in DESIGNS
            ]
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    cache_label = "with" if cache_enabled else "without"
    print_header(f"Figure 8 (1 channel, {cache_label} ORAM cache): "
                 f"normalized execution time vs Freecursive",
                 [design.value for design in DESIGNS])
    for workload, values in sorted(rows.items()):
        cells = " ".join(f"{value:7.3f}" for value in values)
        emit(f"  {workload:12s} {cells}")
    means = [geometric_mean([rows[w][index] for w in rows])
             for index in range(len(DESIGNS))]
    emit(f"  {'geomean':12s} " +
         " ".join(f"{mean:7.3f}" for mean in means))
    emit(f"  ({paper_note})")
    from repro.report import bar_chart
    emit("")
    emit(bar_chart("  normalized execution time (geomean; | = baseline)",
                   list(zip((design.value for design in DESIGNS), means)),
                   reference=1.0))

    # shape: both designs beat the baseline on average
    assert all(mean < 0.95 for mean in means)
