"""The performance ledger: an append-only JSONL trail of measured runs.

Every measurement entry point — ``simulate``, ``sweep``/``compare``,
``serve-bench``, ``faults``, the benchmark harness — can append one
record per executed point, so the repository accumulates a *trajectory*
of its own performance instead of one hand-recorded datapoint per PR.

Each record is two sections with deliberately different contracts:

* ``core`` — the **replay-stable** measurement: the point identity
  (design, workload, trace length, seed, ...), the configuration digest,
  the :func:`~repro.parallel.fingerprint.code_fingerprint` of the source
  that produced it, simulated-cycle metrics (``execution_cycles``,
  ``phase_cycles``, bus lines), and the SLO quantile ladder.  Two runs
  of the same code on the same point produce byte-identical cores — on
  any machine, any ``--jobs`` value, cached or fresh.  ``core_digest``
  (SHA-256 of the canonical core JSON) makes tampering and torn writes
  detectable.
* ``host`` — the **explicitly volatile** provenance: ``cpu_count``,
  Python version, platform, host wall-clock milliseconds, the ``jobs``
  value, and whether the run was served from cache.  This section is
  excluded from the digest; it is *data about the measurement machine*,
  and pretending it is reproducible would be dishonest.

:meth:`Ledger.canonical_dump` renders the core stream alone — that is
the byte-identity artifact CI compares across ``--jobs`` and cached
replays.
"""

from __future__ import annotations

import hmac
import json
import os
import platform
import sys
import time
from dataclasses import asdict
from typing import Dict, List, Optional

from repro.utils.canonical import canonical_digest, canonical_json


def _fingerprint(explicit: Optional[str]) -> str:
    """Resolve a code fingerprint without importing :mod:`repro.parallel`
    at module scope — ``repro.obs`` must stay leaf-importable (core
    modules import :mod:`repro.obs.tracer` during their own init)."""
    if explicit is not None:
        return explicit
    from repro.parallel.fingerprint import code_fingerprint

    return code_fingerprint()

#: Ledger record layout version; :func:`verify_record` rejects any other.
LEDGER_SCHEMA = 2

#: Environment variable naming the default ledger file for CLI verbs.
LEDGER_ENV = "REPRO_LEDGER"

#: Set to ``1`` to silence every implicit ledger append (CI determinism
#: jobs that byte-compare working trees use this).
LEDGER_DISABLE_ENV = "REPRO_NO_LEDGER"


def host_clock_s() -> float:
    """Host wall-clock seconds for throughput measurement (monotonic)."""
    return time.perf_counter()  # reprolint: disable=DET001 -- the ledger's host section is the one sanctioned home for wall-clock: it never enters simulated state and is excluded from the record digest


def host_provenance() -> Dict[str, object]:
    """Who measured: the volatile, machine-identifying fields."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": sys.platform,
    }


def core_digest(core: Dict[str, object]) -> str:
    return canonical_digest(core)


def make_record(kind: str, core: Dict[str, object],
                wall_ms: Optional[float] = None,
                jobs: Optional[int] = None,
                from_cache: Optional[bool] = None,
                host: Optional[Dict[str, object]] = None
                ) -> Dict[str, object]:
    """Assemble one ledger record from a deterministic core."""
    host_section = dict(host) if host is not None else host_provenance()
    if wall_ms is not None:
        host_section["wall_ms"] = round(float(wall_ms), 3)
    if jobs is not None:
        host_section["jobs"] = int(jobs)
    if from_cache is not None:
        host_section["from_cache"] = bool(from_cache)
    return {
        "schema": LEDGER_SCHEMA,
        "kind": kind,
        "core": core,
        "core_digest": core_digest(core),
        "host": host_section,
    }


def append_record(ledger: Optional[Ledger], kind: str,
                  core: Dict[str, object], jobs: Optional[int] = None,
                  wall_ms: Optional[float] = None,
                  from_cache: Optional[bool] = None) -> None:
    """The one path from a measured point to its ledger record.

    A fanned-out point passes its :func:`~repro.parallel.pool.fanout`
    host metadata as ``**meta`` (``wall_ms`` and ``from_cache``).
    Nothing when ``ledger`` is ``None``.
    """
    if ledger is not None:
        ledger.append(make_record(kind, core, wall_ms=wall_ms, jobs=jobs,
                                  from_cache=from_cache))


def verify_record(record: Dict[str, object]) -> bool:
    """True when the core section matches its recorded digest."""
    try:
        return (record.get("schema") == LEDGER_SCHEMA
                and hmac.compare_digest(core_digest(record["core"]),
                                        str(record["core_digest"])))
    except (KeyError, TypeError):
        return False


def canonical_core_line(record: Dict[str, object]) -> str:
    """The replay-stable rendering of one record (host section dropped)."""
    return canonical_json({"schema": record["schema"],
                           "kind": record["kind"],
                           "core": record["core"],
                           "core_digest": record["core_digest"]})


class Ledger:
    """Append-only JSONL file of ledger records."""

    def __init__(self, path: str):
        self.path = path
        self.skipped_lines = 0

    def append(self, record: Dict[str, object]) -> Dict[str, object]:
        """Write one record as a single canonical JSON line."""
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        line = canonical_json(record) + "\n"
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)
        return record

    def append_all(self, records: List[Dict[str, object]]) -> None:
        for record in records:
            self.append(record)

    def read(self, verify: bool = True) -> List[Dict[str, object]]:
        """Every parseable record, in file order.

        Unparseable or digest-failing lines are skipped (counted in
        :attr:`skipped_lines`), never a traceback — an interrupted append
        must not poison the whole trajectory.
        """
        self.skipped_lines = 0
        records: List[Dict[str, object]] = []
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except FileNotFoundError:
            return []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                self.skipped_lines += 1
                continue
            if verify and not verify_record(record):
                self.skipped_lines += 1
                continue
            records.append(record)
        return records

    def canonical_dump(self,
                       records: Optional[List[Dict[str, object]]] = None
                       ) -> str:
        """The byte-identity artifact: one canonical core line per record.

        Identical across ``--jobs`` values, cached replays, and machines
        (the volatile host section is omitted); what CI compares.
        """
        if records is None:
            records = self.read()
        return "".join(canonical_core_line(record) + "\n"
                       for record in records)


def resolve_ledger(path: Optional[str] = None) -> Optional[Ledger]:
    """The ledger a CLI verb should append to, or ``None`` for none.

    An explicit ``--ledger`` path is a direct user request and always
    wins — even over :data:`LEDGER_DISABLE_ENV`, with a warning so the
    override is visible rather than silent.  Without one, the ambient
    :data:`LEDGER_ENV` default applies, which the disable variable
    silences (the CI determinism jobs rely on that).
    """
    disabled = os.environ.get(LEDGER_DISABLE_ENV) == "1"
    if path:
        if disabled:
            print(f"ledger: explicit --ledger {path} overrides "
                  f"{LEDGER_DISABLE_ENV}=1", file=sys.stderr)
        return Ledger(path)
    if disabled:
        return None
    target = os.environ.get(LEDGER_ENV)
    return Ledger(target) if target else None


# ----------------------------------------------------------------------
# Record builders for the tree's measurement producers
# ----------------------------------------------------------------------

def simulation_core(design: str, workload: str, result,
                    config_digest_hex: str,
                    channels: int = 1, trace_length: int = 4000,
                    seed: int = 2018, window_policy: str = "in-order",
                    fingerprint: Optional[str] = None
                    ) -> Dict[str, object]:
    """The deterministic core of one simulation run record."""
    return {
        "point": {
            "design": design,
            "workload": workload,
            "channels": channels,
            "trace_length": trace_length,
            "seed": seed,
            "window_policy": window_policy,
        },
        "config_digest": config_digest_hex,
        "fingerprint": _fingerprint(fingerprint),
        "measure": {
            "execution_cycles": result.execution_cycles,
            "miss_count": result.miss_count,
            "accessoram_count": result.accessoram_count,
            "main_bus_lines": result.main_bus_lines,
            "probe_commands": result.probe_commands,
            "drain_accesses": result.drain_accesses,
            "phase_cycles": dict(sorted(result.phase_cycles.items())),
            "slo": result.miss_latency.summary(),
            "failures": len(result.failures),
            "windows": len(result.windows),
            # inside the digest-protected core on purpose: a silent loss
            # of fast-path coverage changes the core even when the cycle
            # counts still agree
            "fastpath_hit_rate": result.extras.get("fastpath_hit_rate",
                                                   0.0),
        },
    }


def config_digest_hex(config) -> str:
    """SHA-256 of the canonical configuration payload."""
    return canonical_digest(asdict(config), enums=True)


def serve_core(report: Dict[str, object],
               fingerprint: Optional[str] = None) -> Dict[str, object]:
    """The deterministic core of one serving benchmark record."""
    spec = dict(report.get("spec", {}))
    point = {key: spec.get(key)
             for key in ("design", "rate", "requests", "capacity", "batch",
                         "tenants", "seed", "profile")}
    # a shard report names its shard; a sharded point its shard count
    if "shard" in spec:
        point["shard"] = spec["shard"]
    elif "shards" in spec:
        point["shards"] = spec["shards"]
    return {
        "point": point,
        "spec_digest": canonical_digest(spec),
        "fingerprint": _fingerprint(fingerprint),
        "measure": {
            "totals": report.get("totals", {}),
            "queue": report.get("queue", {}),
            "utilization": report.get("service", {}).get("utilization"),
            "shed_rate": report.get("model", {}).get("shed_rate"),
            "slo": report.get("sojourn", {}).get("aggregate", {}),
            # adaptive runs: the full decision log is digest-protected —
            # a replay that decides differently breaks the core digest
            "control": report.get("control"),
        },
    }


def campaign_core(report: Dict[str, object],
                  fingerprint: Optional[str] = None) -> Dict[str, object]:
    """The deterministic core of one fault-campaign record."""
    spec = dict(report.get("spec", {}))
    return {
        "point": {
            "design": spec.get("design"),
            "accesses": spec.get("accesses"),
            "seed": spec.get("seed"),
        },
        "spec_digest": canonical_digest(spec),
        "fingerprint": _fingerprint(fingerprint),
        "measure": {
            "detection": report.get("detection", {}),
            "resilience": report.get("resilience", {}),
            "completed": report.get("completed"),
            "all_detected": report.get("all_detected"),
        },
    }
