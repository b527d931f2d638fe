"""Differential fast-vs-reference gate: equality first, speedup second.

For each (design, workload) point this runs the simulation twice in
fresh interpreters — once with the macro-event fast path (the default)
and once with ``REPRO_REFERENCE_CORE=1`` (the readable event-at-a-time
core, no memo caches) — and

1. **fails** unless every observable is byte-identical: execution
   cycles, per-phase attribution, channel counters, rank residencies,
   window series, and the SHA-256 of the full trace-event stream
   (``wall`` and ``extras`` are excluded — the hit rate differing is
   the fast path's job);
2. **fails** if the geometric-mean wall-clock speedup falls below
   ``--min-speedup`` (default 2.0) — the CI floor that keeps the fast
   path from silently decaying into a no-op.

It prints one line per point and writes no file; the exit code is the
verdict.  Run directly::

    python benchmarks/bench_fastpath.py --trace-length 1200
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

#: The differential suite: every timing-tier design family x two
#: workload personalities (memory-bound and compute-bound).
DIFF_DESIGNS = ("freecursive", "indep-2", "split-2")
DIFF_WORKLOADS = ("mcf", "gromacs")

MIN_SPEEDUP = 2.0

#: Runs one point and prints {digest, wall_s}; wall excludes interpreter
#: startup.  The core toggles are read at import, hence the subprocess.
DRIVER = r"""
import hashlib, json, sys, time

from repro.config import DesignPoint, table2_config
from repro.obs.tracer import CollectingTracer
from repro.sim.system import run_simulation

design, workload, trace_length, repeats = (
    sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))
best = None
for _ in range(repeats):
    tracer = CollectingTracer()
    started = time.perf_counter()
    result = run_simulation(table2_config(DesignPoint(design), channels=1),
                            workload, trace_length=trace_length,
                            tracer=tracer, window_cycles=50_000)
    wall = time.perf_counter() - started
    if best is None or wall < best[0]:
        best = (wall, result, tracer)
wall, result, tracer = best
events_sha = hashlib.sha256(json.dumps(
    [(e.kind, e.name, e.category, e.lane, e.start, e.duration,
      sorted(e.args.items())) for e in tracer.events],
    sort_keys=True).encode()).hexdigest()
print(json.dumps({
    "digest": {
        "execution_cycles": result.execution_cycles,
        "miss_count": result.miss_count,
        "accessoram_count": result.accessoram_count,
        "phase_cycles": result.phase_cycles,
        "channel_counters": result.channel_counters,
        "main_bus_lines": result.main_bus_lines,
        "rank_residencies": result.rank_residencies,
        "windows": result.windows,
        "events_sha": events_sha,
    },
    "fastpath_hit_rate": result.extras.get("fastpath_hit_rate", 0.0),
    "wall_s": wall,
}, sort_keys=True))
"""

REFERENCE_ENV = {"REPRO_REFERENCE_CORE": "1"}
_CORE_SWITCHES = ("REPRO_REFERENCE_CORE",)


def run_point(design: str, workload: str, trace_length: int,
              repeats: int, env_extra: Dict[str, str]) -> Dict[str, object]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    for switch in _CORE_SWITCHES:
        env.pop(switch, None)
    env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-c", DRIVER, design, workload,
         str(trace_length), str(repeats)],
        env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{design}/{workload} driver failed:\n"
                           + proc.stderr[-2000:])
    return json.loads(proc.stdout)


def measure_fastpath(trace_length: int = 1200, repeats: int = 3,
                     designs: Tuple[str, ...] = DIFF_DESIGNS,
                     workloads: Tuple[str, ...] = DIFF_WORKLOADS
                     ) -> Dict[str, object]:
    """The full differential sweep; pure measurement, no gating."""
    points: List[Dict[str, object]] = []
    for design in designs:
        for workload in workloads:
            fast = run_point(design, workload, trace_length, repeats, {})
            reference = run_point(design, workload, trace_length,
                                  max(1, repeats - 1), REFERENCE_ENV)
            points.append({
                "design": design,
                "workload": workload,
                "identical": fast["digest"] == reference["digest"],
                "execution_cycles":
                    fast["digest"]["execution_cycles"],
                "fastpath_hit_rate": fast["fastpath_hit_rate"],
                "fast_wall_s": fast["wall_s"],
                "reference_wall_s": reference["wall_s"],
                "speedup": reference["wall_s"] / fast["wall_s"],
            })
    speedups = [point["speedup"] for point in points]
    return {
        "trace_length": trace_length,
        "repeats": repeats,
        "points": points,
        "cycles_identical": all(point["identical"] for point in points),
        "min_speedup": min(speedups),
        "geomean_speedup": math.exp(
            sum(math.log(value) for value in speedups) / len(speedups)),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="differential fast-vs-reference gate")
    parser.add_argument("--trace-length", type=int, default=1200)
    parser.add_argument("--repeats", type=int, default=3,
                        help="fast-side runs per point (best-of)")
    parser.add_argument("--min-speedup", type=float, default=MIN_SPEEDUP,
                        help="geomean wall-clock floor (default "
                             f"{MIN_SPEEDUP}x)")
    args = parser.parse_args(argv)

    fastpath = measure_fastpath(args.trace_length, args.repeats)
    for point in fastpath["points"]:
        print(f"  {point['design']:12s} {point['workload']:10s} "
              f"{'identical' if point['identical'] else 'DIVERGED '} "
              f"hit={point['fastpath_hit_rate']:.3f} "
              f"{point['reference_wall_s'] * 1e3:7.1f} ms -> "
              f"{point['fast_wall_s'] * 1e3:7.1f} ms "
              f"({point['speedup']:.2f}x)")
    print(f"geomean speedup      {fastpath['geomean_speedup']:.2f}x "
          f"(min {fastpath['min_speedup']:.2f}x, "
          f"floor {args.min_speedup:.1f}x)")

    if not fastpath["cycles_identical"]:
        print("FAIL: fast core diverged from the reference core",
              file=sys.stderr)
        return 1
    if fastpath["geomean_speedup"] < args.min_speedup:
        print(f"FAIL: geomean speedup {fastpath['geomean_speedup']:.2f}x "
              f"below the {args.min_speedup:.1f}x floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
