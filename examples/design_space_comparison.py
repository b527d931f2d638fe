#!/usr/bin/env python
"""The paper's design space (Figure 7) on one workload, end to end.

Runs every design point of Figures 8/9 through the cycle-level simulator
and prints execution time, miss latency, main-channel traffic, and memory
energy — the whole evaluation story in one table.

Run:  python examples/design_space_comparison.py [workload] [trace_length]
"""

import sys

from repro import DesignPoint, DramEnergyModel, run_simulation, table2_config

SINGLE_CHANNEL = (DesignPoint.NONSECURE, DesignPoint.FREECURSIVE,
                  DesignPoint.INDEP_2, DesignPoint.SPLIT_2)
DOUBLE_CHANNEL = (DesignPoint.NONSECURE, DesignPoint.FREECURSIVE,
                  DesignPoint.INDEP_4, DesignPoint.SPLIT_4,
                  DesignPoint.INDEP_SPLIT)


def evaluate(designs, channels, workload, trace_length):
    print(f"\n--- {channels}-channel memory system, workload {workload!r} "
          f"({trace_length} trace records) ---")
    print(f"{'design':12s} {'exec cycles':>12s} {'norm':>6s} "
          f"{'latency':>8s} {'bus lines':>10s} {'energy':>8s}")
    baseline = None
    for design in designs:
        config = table2_config(design, channels=channels)
        result = run_simulation(config, workload,
                                trace_length=trace_length)
        energy = DramEnergyModel(config).report(result)
        if design is DesignPoint.FREECURSIVE:
            baseline = result
        norm = (result.normalized_time(baseline)
                if baseline is not None else float("nan"))
        print(f"{design.value:12s} {result.execution_cycles:12,} "
              f"{norm:6.2f} {result.miss_latency.mean:8.0f} "
              f"{result.main_bus_lines:10,} "
              f"{energy.total_pj / 1e6:7.1f}uJ")


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "mcf"
    trace_length = int(sys.argv[2]) if len(sys.argv) > 2 else 4000
    evaluate(SINGLE_CHANNEL, 1, workload, trace_length)
    evaluate(DOUBLE_CHANNEL, 2, workload, trace_length)
    print("\n'norm' is execution time relative to Freecursive "
          "(the paper's Figures 8/9 metric).")


if __name__ == "__main__":
    main()
