"""Fold the result files of a batch of runs into ``baseline.json``.

Run the benchmark on every workload over several seeds (and one traced
run per workload) at ``BENCHMARK.json``'s ``run_seconds``, then, from the
repository root::

    python3 perfbench/baseline.py

For each workload and metric it records the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread
``(q3 - q1) / median`` and the seeds, beside the host facts the runs
recorded.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
CONFIG = HERE.parent / "BENCHMARK.json"
BASELINE = HERE / "baseline.json"


def summarise(values):
    values = sorted(values)
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "n": len(values)}


def main() -> int:
    runs = [json.loads(path.read_text())
            for path in sorted(OUT.glob("*-seed*-trace*.json"))]
    seconds = json.loads(CONFIG.read_text())["run_seconds"]
    runs = [run for run in runs
            if run["correct"] and run["seconds"] == seconds]
    if not runs:
        print(f"no passing {seconds}-second result files under {OUT}",
              file=sys.stderr)
        return 2
    grouped = defaultdict(lambda: defaultdict(list))
    seeds = defaultdict(set)
    units = {}
    for run in runs:
        key = (run["workload"], run["trace"])
        seeds[key].add(run["seed"])
        for name, metric in run["metrics"].items():
            grouped[key][name].append(metric["value"])
            units[name] = (metric["unit"], metric["domain"])
    envs = sorted({json.dumps(run["env"], sort_keys=True) for run in runs})
    baseline = {"env": [json.loads(env) for env in envs],
                "seconds": seconds, "workloads": {}}
    for (workload, trace), metrics in sorted(grouped.items()):
        section = baseline["workloads"].setdefault(workload, {})
        section["traced" if trace else "untraced"] = {
            "seeds": sorted(seeds[workload, trace]),
            "metrics": {name: dict(summarise(values), unit=units[name][0],
                                   domain=units[name][1])
                        for name, values in sorted(metrics.items())}}
    BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True)
                        + "\n")
    print(f"wrote {BASELINE} from {len(runs)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
