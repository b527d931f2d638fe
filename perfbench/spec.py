"""Every metric the benchmark reports: name, unit, domain, direction.

``END_TO_END`` is measured with tracing off, ``PER_LAYER`` by the traced
run.  Host metrics vary run to run; simulated metrics are deterministic
for a seed and must repeat exactly — a pure host-speed change leaves
them identical.

The last line of a run carries only the metrics that ``BENCHMARK.json``
gates (:data:`GATED`): the end-to-end metrics every workload has and
that are never zero.  The others are printed, with their sample count,
in the table above it and in the run's result file.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

SIM = ("sim-oram", "sim-baseline")
SERVE = ("serve-read", "serve-write")
ALL = SIM + SERVE


class Metric(NamedTuple):
    name: str
    unit: str
    domain: str          # "host" or "simulated"
    better: str          # "lower" or "higher"
    workloads: Tuple[str, ...]
    meaning: str


END_TO_END = (
    Metric("setup_s", "s", "host", "lower", ALL,
           "fresh process to the first timed operation: imports, config, "
           "backend/protocol and scheduler construction (median of 5 "
           "processes spawned between passes)"),
    Metric("ops_per_s", "1/s", "host", "higher", ALL,
           "trace records simulated (sim-*) or requests offered (serve-*) "
           "per host second of the timed phase (each timed segment's "
           "fastest pass)"),
    Metric("access_host_ms_p50", "ms", "host", "lower", SERVE,
           "median host time of one protocol.access call"),
    Metric("access_host_ms_p99", "ms", "host", "lower", SERVE,
           "p99 host time of one protocol.access call"),
    Metric("peak_rss_mb", "MB", "host", "lower", ALL,
           "peak resident memory of the workload's process"),
    Metric("error_rate", "fraction", "host", "lower", ALL,
           "operations that raised or failed an output check / attempted"),
    Metric("sim_cycles", "cycles", "simulated", "lower", SIM,
           "execution cycles summed over the workload's points"),
    Metric("sojourn_ticks_p50", "ticks", "simulated", "lower", SERVE,
           "median arrival-to-completion time in link-event ticks"),
    Metric("sojourn_ticks_p99", "ticks", "simulated", "lower", SERVE,
           "p99 arrival-to-completion time in link-event ticks"),
    Metric("slo_miss_frac", "fraction", "simulated", "lower", SERVE,
           "offered requests shed or slower than the p99 SLO target"),
    Metric("accesses_per_req", "ratio", "simulated", "lower", SERVE,
           "protocol accesses / completed requests"),
)

#: End-to-end metrics on the last output line (and in BENCHMARK.json).
GATED = ("setup_s", "ops_per_s", "peak_rss_mb")


PER_LAYER = (
    Metric("serve.self_share", "%", "host", "lower", SERVE,
           "self time of loadgen/scheduler/slo as a share of traced time"),
    Metric("serve.batches", "count", "simulated", "lower", SERVE,
           "batches the scheduler drained"),
    Metric("serve.coalesce_frac", "fraction", "simulated", "higher", SERVE,
           "coalesced reads / admitted reads"),
    Metric("serve.wait_ticks_p99", "ticks", "simulated", "lower", SERVE,
           "p99 arrival-to-service-start wait"),
    Metric("control.self_share", "%", "host", "lower", SERVE,
           "self time of the control plane"),
    Metric("control.decisions", "count", "simulated", "lower", SERVE,
           "controller decisions"),
    Metric("control.applied_frac", "fraction", "simulated", "higher", SERVE,
           "applied decisions / decisions"),
    Metric("control.plain_accesses", "count", "simulated", "higher", SERVE,
           "morphed (non-secure) accesses served by the overlay"),
    Metric("core.self_share", "%", "host", "lower", SERVE,
           "self time of the SDIMM protocols"),
    Metric("core.accesses", "count", "simulated", "lower", SERVE,
           "protocol access calls"),
    Metric("core.busy_ticks", "ticks", "simulated", "lower", SERVE,
           "ticks the server was busy"),
    Metric("crypto.self_share", "%", "host", "lower", SERVE,
           "self time of PRF, counter mode and MACs (incl. hashlib)"),
    Metric("crypto.prf_calls", "count", "host", "lower", SERVE,
           "Prf.evaluate calls"),
    Metric("crypto.prf_bytes", "bytes", "host", "lower", SERVE,
           "bytes Prf.evaluate produced"),
    Metric("crypto.mac_tags", "count", "host", "lower", SERVE,
           "MAC and PMMAC tags computed"),
    Metric("oram.self_share", "%", "host", "lower", ALL,
           "self time of Path ORAM, stash, position map, buckets, PLB"),
    Metric("oram.path_accesses", "count", "simulated", "lower", ALL,
           "PathOram path accesses (serve-*), measured accessORAMs (sim-*)"),
    Metric("oram.stash_peak", "blocks", "simulated", "lower", SERVE,
           "largest stash occupancy"),
    Metric("oram.plb_hit_frac", "fraction", "simulated", "higher", SIM,
           "PLB hits / PLB lookups"),
    Metric("fastpath.self_share", "%", "host", "lower", SIM,
           "self time of the macro-event fastpath"),
    Metric("fastpath.attempts", "count", "simulated", "lower", SIM,
           "path accesses offered to the fastpath (backend counters)"),
    Metric("fastpath.hit_frac", "fraction", "simulated", "higher", SIM,
           "accesses stamped on the fastpath / attempts"),
    Metric("fastpath.fallbacks", "count", "simulated", "lower", SIM,
           "accesses handed back to the event core"),
    Metric("dram.self_share", "%", "host", "lower", SIM,
           "self time of channel, bank, rank and FR-FCFS scheduling"),
    Metric("dram.runs_scheduled", "count", "simulated", "lower", SIM,
           "schedule_run/schedule_access calls on the event core"),
    Metric("dram.requests", "count", "simulated", "lower", SIM,
           "DRAM column reads and writes"),
    Metric("sim.self_share", "%", "host", "lower", SIM,
           "self time of the CPU model, backends, buses and event queue"),
    Metric("sim.misses", "count", "simulated", "lower", SIM,
           "measured LLC misses"),
    Metric("cache.self_share", "%", "host", "lower", SIM,
           "self time of the LLC model"),
    Metric("cache.llc_hit_frac", "fraction", "simulated", "higher", SIM,
           "LLC hits / LLC accesses"),
    Metric("workloads.gen_s", "s", "host", "lower", ALL,
           "trace and request-stream generation, outside the timed phase"),
    Metric("trace.ops_per_s", "1/s", "host", "higher", ALL,
           "ops_per_s with every layer wrapped"),
    Metric("trace.overhead_frac", "fraction", "host", "lower", ALL,
           "untraced / traced ops_per_s - 1"),
)


#: Which end-to-end metric each layer should move, and on which workload.
LAYER_MAP: Dict[str, Dict[str, object]] = {
    "serve": {"modules": "serve.loadgen, serve.scheduler, serve.slo",
              "moves": ["accesses_per_req", "sojourn_ticks_p99"],
              "on": "serve-read", "barely": "serve-write"},
    "control": {"modules": "control.plane, control.admission, control.morph",
                "moves": ["slo_miss_frac", "sojourn_ticks_p99"],
                "on": "serve-write", "absent": "every other workload"},
    "core": {"modules": "core.split, core.independent, core.indep_split, "
                        "core.secure_buffer",
             "moves": ["ops_per_s", "access_host_ms_p50"],
             "on": "serve-read", "smaller": "serve-write"},
    "crypto": {"modules": "crypto.prf, crypto.ctr, crypto.mac",
               "moves": ["ops_per_s", "access_host_ms_p50",
                         "access_host_ms_p99"],
               "on": "serve-read, serve-write", "absent": "sim-*"},
    "oram": {"modules": "oram.path_oram, oram.stash, oram.posmap, "
                        "oram.bucket, oram.integrity, oram.plb",
             "moves": ["ops_per_s", "setup_s"],
             "on": "serve-write", "smaller": "serve-read"},
    "fastpath": {"modules": "fastpath.access, fastpath.engine, "
                            "fastpath.runs",
                 "moves": ["ops_per_s"], "on": "sim-oram",
                 "absent": "sim-baseline, serve-*"},
    "dram": {"modules": "dram.channel, dram.bank, dram.rank, "
                        "dram.scheduler, dram.address",
             "moves": ["ops_per_s"], "on": "sim-baseline",
             "smaller": "sim-oram"},
    "sim": {"modules": "sim.cpu, sim.backends, sim.bus, sim.events",
            "moves": ["ops_per_s"], "on": "sim-oram, sim-baseline"},
    "cache": {"modules": "cache.cache (the LLC)", "moves": ["ops_per_s"],
              "on": "sim-oram, sim-baseline"},
    "workloads": {"modules": "workloads.synthetic, serve.loadgen",
                  "moves": [], "on": "-",
                  "note": "input generation is reported so it is not "
                          "mistaken for simulator time"},
}


def by_name(metrics) -> Dict[str, Metric]:
    return {metric.name: metric for metric in metrics}
