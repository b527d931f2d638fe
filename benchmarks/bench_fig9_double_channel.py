"""Figure 9 reproduction: double-channel SDIMM designs vs Freecursive.

Paper: "INDEP-4, SPLIT-4, and INDEP-SPLIT improve performance by 20.3%,
20.4%, and 47.4% on average"; gromacs/omnetpp (high MLP) favour INDEP-4,
GemsFDTD (low MLP) favours SPLIT-4; INDEP-SPLIT "finds the best balance
... in every benchmark".
"""

from repro.config import DesignPoint, DOUBLE_CHANNEL_DESIGNS as DESIGNS
from repro.sim.stats import geometric_mean

from _harness import WORKLOADS, emit, print_header, run_cached


def test_fig9_double_channel(benchmark):
    def sweep():
        rows = {}
        for workload in WORKLOADS:
            baseline = run_cached(DesignPoint.FREECURSIVE, workload, 2)
            rows[workload] = [
                run_cached(design, workload, 2).normalized_time(baseline)
                for design in DESIGNS
            ]
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print_header("Figure 9 (2 channels): normalized execution time "
                 "vs Freecursive", [d.value[:7] for d in DESIGNS])
    for workload, values in sorted(rows.items()):
        cells = " ".join(f"{value:7.3f}" for value in values)
        emit(f"  {workload:12s} {cells}")
    means = {design: geometric_mean([rows[w][index] for w in rows])
             for index, design in enumerate(DESIGNS)}
    emit(f"  {'geomean':12s} " +
         " ".join(f"{means[d]:7.3f}" for d in DESIGNS))
    emit("  (paper: INDEP-4 0.797, SPLIT-4 0.796, INDEP-SPLIT 0.526)")
    from repro.report import bar_chart
    emit("")
    emit(bar_chart("  normalized execution time (geomean; | = baseline)",
                   [(design.value, means[design]) for design in DESIGNS],
                   reference=1.0))

    # shape assertions from the paper's narrative
    assert means[DesignPoint.INDEP_SPLIT] == min(means.values()), \
        "INDEP-SPLIT must be the best design overall"
    high_mlp = [w for w in ("gromacs", "omnetpp") if w in rows]
    for workload in high_mlp:
        indep = rows[workload][0]
        split = rows[workload][1]
        assert indep < split, f"{workload} (high MLP) must favour INDEP-4"
    if "GemsFDTD" in rows:
        assert rows["GemsFDTD"][1] < rows["GemsFDTD"][0], \
            "GemsFDTD (low MLP) must favour SPLIT-4"


def test_fig6_vs_fig9_headline(benchmark):
    """Paper: 'the 5x slowdown in the baseline ... has been halved to 2.6x
    with the INDEP-SPLIT protocol'."""
    def compute():
        baseline_slow = []
        best_slow = []
        for workload in WORKLOADS:
            nonsecure = run_cached(DesignPoint.NONSECURE, workload, 2)
            freecursive = run_cached(DesignPoint.FREECURSIVE, workload, 2)
            combined = run_cached(DesignPoint.INDEP_SPLIT, workload, 2)
            baseline_slow.append(freecursive.execution_cycles /
                                 nonsecure.execution_cycles)
            best_slow.append(combined.execution_cycles /
                             nonsecure.execution_cycles)
        return (geometric_mean(baseline_slow), geometric_mean(best_slow))

    freecursive_slowdown, combined_slowdown = benchmark.pedantic(
        compute, rounds=1, iterations=1)
    emit("")
    emit(f"  Freecursive slowdown vs non-secure (2ch): "
         f"{freecursive_slowdown:.1f}x   (paper: 5.2x)")
    emit(f"  INDEP-SPLIT slowdown vs non-secure (2ch): "
         f"{combined_slowdown:.1f}x   (paper: 2.6x)")
    assert combined_slowdown < freecursive_slowdown
