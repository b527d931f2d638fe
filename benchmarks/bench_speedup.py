"""Serial-vs-parallel sweep throughput + hot-path speedup, recorded to
``BENCH_pr3.json``.

Two measurements, both honest about the machine they ran on
(``cpu_count`` is in the record):

1. **Sweep throughput** — the same point set through
   :func:`repro.parallel.run_sweep` with ``jobs=1`` and ``jobs=N``
   (cache disabled for both).  The script *fails* (exit 1) if any
   parallel result diverges from its serial twin — this is the CI
   perf-smoke divergence gate.
2. **Hot path** — one fixed single-run scenario timed in two fresh
   subprocesses: the *reference* core (``REPRO_REFERENCE_CORE=1``:
   closure-based event scheduling, the helper-per-constraint
   ``schedule_run``, bank-scanning residency tracking, memo caches off)
   against the optimized default.  Cycle
   counts must match exactly; the wall-clock delta is the measured
   single-run speedup of the hot-path work.

Run directly::

    python benchmarks/bench_speedup.py --trace-length 1200 --jobs 4

Under pytest (tier-2 benchmark suite) the module contributes one smoke
test that runs a miniature version of the same flow.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.config import DesignPoint  # noqa: E402
from repro.parallel import (SweepPoint, code_fingerprint,  # noqa: E402
                            run_result_to_dict, run_sweep)

DEFAULT_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results", "BENCH_pr3.json")

#: Designs x workloads of the measured sweep (8 points: enough to keep a
#: small pool busy, small enough for a CI smoke run).
SWEEP_DESIGNS = (DesignPoint.FREECURSIVE, DesignPoint.INDEP_2)
SWEEP_WORKLOADS = ("mcf", "gromacs", "libquantum", "lbm")

_HOTPATH_SNIPPET = """\
import time
from repro.config import table2_config, DesignPoint
from repro.sim.system import run_simulation
best = None
cycles = None
for _ in range({repeats}):
    start = time.perf_counter()
    result = run_simulation(table2_config(DesignPoint.{design}, channels=1),
                            {workload!r}, trace_length={trace_length})
    elapsed = time.perf_counter() - start
    assert cycles in (None, result.execution_cycles)
    cycles = result.execution_cycles
    if best is None or elapsed < best:
        best = elapsed
print(cycles, best)
"""


def sweep_points(trace_length: int) -> List[SweepPoint]:
    return [SweepPoint(design, workload, trace_length=trace_length)
            for design in SWEEP_DESIGNS
            for workload in SWEEP_WORKLOADS]


def measure_sweep(points: List[SweepPoint], jobs: int) -> Dict[str, object]:
    start = time.perf_counter()
    outcome = run_sweep(points, jobs=jobs, cache=None)
    elapsed = time.perf_counter() - start
    return {
        "jobs": jobs,
        "wall_s": elapsed,
        "results": [run_result_to_dict(entry.result)
                    for entry in outcome.results],
    }


def measure_hotpath_run(trace_length: int, reference: bool,
                        design: str = "FREECURSIVE",
                        workload: str = "mcf",
                        repeats: int = 3) -> Dict[str, object]:
    """Best-of-``repeats`` simulation time in one fresh subprocess.

    A fresh process runs the core its environment selects, so each
    variant gets its own interpreter; repeating the run *inside* the process and taking the
    minimum damps scheduler noise without re-paying import time.
    """
    code = _HOTPATH_SNIPPET.format(design=design, workload=workload,
                                   trace_length=trace_length,
                                   repeats=repeats)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_REFERENCE_CORE"] = "1" if reference else ""
    output = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    cycles, elapsed = output.stdout.split()
    return {"cycles": int(cycles), "wall_s": float(elapsed),
            "reference": reference}


def run_benchmark(trace_length: int, jobs: int,
                  out_path: Optional[str]) -> Dict[str, object]:
    """The full measurement; returns the record written to ``out_path``."""
    points = sweep_points(trace_length)
    serial = measure_sweep(points, jobs=1)
    parallel = measure_sweep(points, jobs=jobs)
    identical = serial["results"] == parallel["results"]

    # Hot-path A/B: two interleaved subprocesses per variant, three runs
    # inside each, keep the per-variant minimum — interleaving keeps slow
    # machine phases from landing entirely on one variant.
    samples: Dict[bool, List[Dict[str, object]]] = {True: [], False: []}
    for _ in range(2):
        for variant in (True, False):
            samples[variant].append(
                measure_hotpath_run(trace_length, reference=variant))
    reference = min(samples[True], key=lambda r: r["wall_s"])
    optimized = min(samples[False], key=lambda r: r["wall_s"])
    hotpath_identical = reference["cycles"] == optimized["cycles"]

    record = {
        "schema": 1,
        "benchmark": "pr3-parallel-sweep-and-hotpath",
        "cpu_count": multiprocessing.cpu_count(),
        "trace_length": trace_length,
        "code_fingerprint": code_fingerprint(),
        "sweep": {
            "points": len(points),
            "designs": [design.value for design in SWEEP_DESIGNS],
            "workloads": list(SWEEP_WORKLOADS),
            "serial_wall_s": serial["wall_s"],
            "parallel_wall_s": parallel["wall_s"],
            "parallel_jobs": jobs,
            "speedup": serial["wall_s"] / parallel["wall_s"]
            if parallel["wall_s"] else 0.0,
            "results_identical": identical,
        },
        "hotpath": {
            "design": "freecursive",
            "workload": "mcf",
            "reference_wall_s": reference["wall_s"],
            "optimized_wall_s": optimized["wall_s"],
            "speedup": reference["wall_s"] / optimized["wall_s"]
            if optimized["wall_s"] else 0.0,
            "cycles": optimized["cycles"],
            "cycles_identical": hotpath_identical,
        },
    }
    if out_path:
        os.makedirs(os.path.dirname(os.path.abspath(out_path)),
                    exist_ok=True)
        with open(out_path, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="serial-vs-parallel sweep + hot-path speedup benchmark")
    parser.add_argument("--trace-length", type=int, default=1200)
    parser.add_argument("--jobs", type=int,
                        default=min(4, max(2, multiprocessing.cpu_count())))
    parser.add_argument("--out", default=DEFAULT_OUT, metavar="FILE",
                        help=f"JSON record path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)

    record = run_benchmark(args.trace_length, args.jobs, args.out)
    sweep = record["sweep"]
    hotpath = record["hotpath"]
    print(f"cpu_count            {record['cpu_count']}")
    print(f"sweep points         {sweep['points']}")
    print(f"serial wall          {sweep['serial_wall_s']:.2f} s")
    print(f"parallel wall (x{sweep['parallel_jobs']})   "
          f"{sweep['parallel_wall_s']:.2f} s")
    print(f"sweep speedup        {sweep['speedup']:.2f}x")
    print(f"hot-path reference   {hotpath['reference_wall_s']:.2f} s")
    print(f"hot-path optimized   {hotpath['optimized_wall_s']:.2f} s")
    print(f"hot-path speedup     {hotpath['speedup']:.2f}x")
    print(f"wrote {args.out}")
    if not sweep["results_identical"]:
        print("FAIL: parallel sweep diverged from serial", file=sys.stderr)
        return 1
    if not hotpath["cycles_identical"]:
        print("FAIL: hot-path work changed simulated cycles", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# pytest smoke hook (tier-2): tiny version of the same flow
# ----------------------------------------------------------------------

def test_parallel_sweep_matches_serial_smoke():
    points = [SweepPoint(DesignPoint.NONSECURE, "mcf", trace_length=600),
              SweepPoint(DesignPoint.INDEP_2, "mcf", trace_length=600)]
    serial = run_sweep(points, jobs=1)
    parallel = run_sweep(points, jobs=2)
    assert ([run_result_to_dict(e.result) for e in serial.results] ==
            [run_result_to_dict(e.result) for e in parallel.results])


if __name__ == "__main__":
    sys.exit(main())
