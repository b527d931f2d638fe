"""Output checks.  Every operation that fails one counts against
``error_rate``; any failure makes the benchmark exit 1.

None of the checks look at ciphertext: a change of PRF or cipher that
keeps plaintexts, access sequences and cycles must pass unchanged.

Simulator (per point):

* misses and LLC hit rate equal an independent LRU replay of the trace;
* a NONSECURE point issues no accessORAM, a secure one at least one per
  miss and replays every path access on the fastpath (no parked ranks in
  the Table II configuration);
* at :data:`~workloads.DEFAULT_SEED`, cycles, misses, accessORAMs and
  fastpath hit rate equal ``reference.json``.

Serving (per request): replaying the admitted requests in program order
against a plain dict gives every read's plaintext, including the zero
block a never-written address reads as; the queue stayed within its
bound and every admitted request completed.

Every later pass must reproduce the first pass's simulated results
exactly (the serving report byte for byte).
"""

from __future__ import annotations

import json
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.config import DesignPoint
from repro.oram.path_oram import Op
from repro.serve import slo

import workloads

REFERENCE_PATH = Path(__file__).with_name("reference.json")


# ----------------------------------------------------------------------
# Simulator
# ----------------------------------------------------------------------

def llc_replay(records, warmup: int, sets: int, ways: int
               ) -> Tuple[int, int]:
    """(misses, hits) of the measured records through an LRU cache."""
    cache: Dict[int, OrderedDict] = {}
    misses = hits = 0
    for index, record in enumerate(records):
        line = record.line_address
        ways_of_set = cache.setdefault(line % sets, OrderedDict())
        tag = line // sets
        hit = tag in ways_of_set
        if hit:
            ways_of_set.move_to_end(tag)
        else:
            ways_of_set[tag] = True
            if len(ways_of_set) > ways:
                ways_of_set.popitem(last=False)
        if index >= warmup:
            if hit:
                hits += 1
            else:
                misses += 1
    return misses, hits


def llc_expectations(inputs: workloads.SimInputs
                     ) -> Dict[str, Tuple[int, float]]:
    """Expected (misses, LLC hit rate) per point of a sim workload."""
    expected = {}
    for point in inputs.points:
        cpu = workloads.sim_config(point, inputs.seed).cpu
        sets = cpu.llc_bytes // (cpu.llc_line_bytes * cpu.llc_assoc)
        records = inputs.traces[point.key]
        misses, hits = llc_replay(records, len(records) // 3, sets,
                                  cpu.llc_assoc)
        total = misses + hits
        expected[point.key] = (misses, hits / total if total else 0.0)
    return expected


def load_references(workload: str, seed: int) -> Optional[Dict[str, dict]]:
    """Stored per-point statistics, or None when the seed has none."""
    if seed != workloads.DEFAULT_SEED:
        return None
    stored = json.loads(REFERENCE_PATH.read_text())
    if stored.get("seed") != seed:
        return None
    return stored[workload]


def perturb(references: Dict[str, dict]) -> Dict[str, dict]:
    """Negative control: one reference cycle count off by one."""
    perturbed = {key: dict(stats) for key, stats in references.items()}
    first = sorted(perturbed)[0]
    perturbed[first]["cycles"] += 1
    return perturbed


def check_sim_point(item: workloads.SimPointResult,
                    expected: Tuple[int, float],
                    reference: Optional[dict]) -> List[str]:
    """Problems with one simulated point (empty when it passes)."""
    stats = item.stats
    problems = []
    if item.result.failures:
        problems.append(f"run recorded failures {item.result.failures}")
    if stats["cycles"] <= 0:
        problems.append("no execution cycles")
    misses, hit_rate = expected
    if stats["misses"] != misses:
        problems.append(f"misses {stats['misses']} != LRU replay {misses}")
    if item.result.llc_hit_rate != hit_rate:
        problems.append(f"LLC hit rate {item.result.llc_hit_rate} != "
                        f"LRU replay {hit_rate}")
    if item.point.design is DesignPoint.NONSECURE:
        if stats["accessorams"] != 0:
            problems.append("NONSECURE issued accessORAMs")
    else:
        if stats["accessorams"] < stats["misses"]:
            problems.append("fewer accessORAMs than misses")
        if stats["fastpath_hit_rate"] != 1.0:
            problems.append(f"fastpath hit rate "
                            f"{stats['fastpath_hit_rate']} != 1.0")
    if reference is not None and stats != reference:
        problems.append(f"statistics {stats} != reference {reference}")
    return problems


def check_sim_pass(results: List[workloads.SimPointResult],
                   expected: Dict[str, Tuple[int, float]],
                   references: Optional[Dict[str, dict]],
                   first: Optional[List[workloads.SimPointResult]] = None
                   ) -> Tuple[int, List[str]]:
    """(failed trace records, problem lines) for one pass."""
    failed = 0
    problems = []
    for index, item in enumerate(results):
        found = check_sim_point(
            item, expected[item.point.key],
            None if references is None else references.get(item.point.key))
        if first is not None and item.stats != first[index].stats:
            found.append("differs from the first pass")
        if found:
            failed += item.point.records
            problems.extend(f"{item.point.key}: {text}" for text in found)
    return failed, problems


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------

def check_serve_point(run: workloads.ServePointResult,
                      first: Optional[workloads.ServePointResult] = None
                      ) -> Tuple[int, List[str]]:
    """(failed requests, problem lines) for one serving run."""
    outcome, report = run.outcome, run.report
    block_bytes = run.spec.block_bytes
    shed = {(record.tenant, record.sequence) for record in outcome.shed}
    totals = report["totals"]
    problems = []
    if not report["queue"]["depth_bounded"]:
        problems.append("queue exceeded its bound")
    if totals["offered"] != len(run.requests):
        problems.append("offered count differs from the timeline")
    if totals["completed"] != totals["admitted"]:
        problems.append("an admitted request never completed")
    if first is not None and (slo.canonical_json(report) !=
                              slo.canonical_json(first.report)):
        problems.append("report differs from the first pass")
    if problems:
        return len(run.requests), problems

    store: Dict[int, bytes] = {}
    failed = 0
    for request in run.requests:
        key = (request.tenant, request.sequence)
        if key in shed:
            continue
        if request.op is Op.WRITE:
            store[request.address] = request.data
            continue
        expected = store.get(request.address, bytes(block_bytes))
        if outcome.read_bytes.get(key) != expected:
            failed += 1
            if len(problems) < 5:
                problems.append(f"read {request.tenant}:{request.sequence} "
                                f"of address {request.address} returned "
                                f"wrong bytes")
    return failed, problems


def check_serve_pass(results: List[workloads.ServePointResult],
                     first: Optional[List[workloads.ServePointResult]] = None
                     ) -> Tuple[int, List[str]]:
    """(failed requests, problem lines) for one pass."""
    failed = 0
    problems = []
    for index, run in enumerate(results):
        point_failed, point_problems = check_serve_point(
            run, None if first is None else first[index])
        failed += point_failed
        problems.extend(f"seed {run.spec.seed}: {text}"
                        for text in point_problems)
    return failed, problems
