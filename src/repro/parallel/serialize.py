"""Full-fidelity serialization of :class:`RunResult` for the run cache.

:meth:`RunResult.to_dict` is a human-facing *summary* (it collapses the
latency reservoir into two percentiles); the cache needs the opposite — a
lossless round-trip, so a cache hit is indistinguishable from re-running
the simulation.  The only field that does not survive is the latency
reservoir's RNG handle: by the time a result is serialized the run is
over and the reservoir is frozen, so the restored ``LatencyStats`` keeps
its exact samples with ``sample_rng=None``.

The canonical JSON form (:mod:`repro.utils.canonical`) doubles as the
content digest input for corruption detection in :mod:`.cache`.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.stats import LatencyStats, RunResult

#: Bump when the serialized shape changes; mismatched entries are misses.
#: 2: RunResult grew ``windows`` (cycle-window time-series snapshots).
SCHEMA_VERSION = 2


def latency_to_dict(latency: LatencyStats) -> Dict[str, object]:
    return {
        "count": latency.count,
        "total": latency.total,
        "maximum": latency.maximum,
        "samples": list(latency.samples),
        "sample_cap": latency.sample_cap,
    }


def latency_from_dict(payload: Dict[str, object]) -> LatencyStats:
    return LatencyStats(
        count=int(payload["count"]),
        total=int(payload["total"]),
        maximum=int(payload["maximum"]),
        samples=[int(value) for value in payload["samples"]],
        sample_cap=int(payload["sample_cap"]),
        sample_rng=None,
    )


def run_result_to_dict(result: RunResult) -> Dict[str, object]:
    """Lossless dictionary form of one run (inverse of
    :func:`run_result_from_dict`)."""
    return {
        "schema": SCHEMA_VERSION,
        "design": result.design,
        "workload": result.workload,
        "execution_cycles": result.execution_cycles,
        "miss_count": result.miss_count,
        "accessoram_count": result.accessoram_count,
        "llc_hit_rate": result.llc_hit_rate,
        "miss_latency": latency_to_dict(result.miss_latency),
        "channel_counters": [dict(entry)
                             for entry in result.channel_counters],
        "on_dimm_counters": [dict(entry)
                             for entry in result.on_dimm_counters],
        "main_bus_lines": result.main_bus_lines,
        "probe_commands": result.probe_commands,
        "drain_accesses": result.drain_accesses,
        "rank_residencies": [dict(entry)
                             for entry in result.rank_residencies],
        "phase_cycles": dict(result.phase_cycles),
        "extras": dict(result.extras),
        "failures": [dict(record) for record in result.failures],
        "windows": [dict(snapshot) for snapshot in result.windows],
    }


def run_result_from_dict(payload: Dict[str, object]) -> RunResult:
    """Rebuild a :class:`RunResult`; raises ``KeyError``/``ValueError`` on
    malformed payloads (the cache maps those to a miss)."""
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported result schema {payload.get('schema')!r}")
    return RunResult(
        design=str(payload["design"]),
        workload=str(payload["workload"]),
        execution_cycles=int(payload["execution_cycles"]),
        miss_count=int(payload["miss_count"]),
        accessoram_count=int(payload["accessoram_count"]),
        llc_hit_rate=float(payload["llc_hit_rate"]),
        miss_latency=latency_from_dict(payload["miss_latency"]),
        channel_counters=[dict(entry)
                          for entry in payload["channel_counters"]],
        on_dimm_counters=[dict(entry)
                          for entry in payload["on_dimm_counters"]],
        main_bus_lines=int(payload["main_bus_lines"]),
        probe_commands=int(payload["probe_commands"]),
        drain_accesses=int(payload["drain_accesses"]),
        rank_residencies=[dict(entry)
                          for entry in payload["rank_residencies"]],
        phase_cycles={str(k): int(v)
                      for k, v in payload["phase_cycles"].items()},
        extras={str(k): float(v) for k, v in payload["extras"].items()},
        # tolerant default: entries written before the resilience layer
        # landed have no failures field (and were clean by construction)
        failures=[dict(record) for record in payload.get("failures", [])],
        windows=[dict(snapshot) for snapshot in payload.get("windows", [])],
    )
