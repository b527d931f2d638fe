"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

* ``simulate`` — run one (design, workload) pair through the cycle-level
  simulator and print the measurements.
* ``compare``  — run the full design space of Figures 8/9 on one workload.
* ``sweep``    — run every SPEC-like workload for one design.
* ``overflow`` — print the Figure 13 transfer-queue analysis.
* ``coresident`` — non-secure VM latency next to each secure design.
* ``trace``    — generate a synthetic miss trace to a file.
* ``audit-trace`` — replay runs with different address streams and check
  that the adversary-visible trace is indistinguishable (Section III-G).
* ``faults``   — run a seeded fault-injection campaign against a secure
  protocol and report detection / recovery / quarantine accounting
  (``docs/faults.md``); exits non-zero if any injected integrity fault
  escaped detection.
* ``serve-bench`` — open-loop rate sweep through the serving layer
  (``docs/serving.md``): bounded admission, batching with read
  coalescing, p50/p95/p99/p999 sojourn times, shed rates against the
  Section IV-C M/M/1/K prediction; exits non-zero if any report shows
  the queue-depth bound violated.  ``--shards N`` serves each point
  from N worker processes over leaf-MSB consistent-hash routing, with
  per-shard bounded admission, aggregate SLO folding, transfer-queue
  migration accounting, and optional quarantined (degraded) shards.
* ``cache``   — ``stats`` inventories the on-disk run cache (entries,
  staleness vs the current code fingerprint, disk bytes); ``prune``
  deletes entries recorded under other fingerprints.
* ``designs`` / ``workloads`` — list what is available.
* ``lint``     — run reprolint, the repository's own static analyzer
  (obliviousness / constant-time / determinism invariants).

``simulate --trace-out FILE`` additionally records every layer's events
through a :class:`~repro.obs.tracer.CollectingTracer` and writes a
Chrome trace-event JSON loadable in Perfetto (``docs/observability.md``).

Every measuring verb accepts ``--ledger FILE`` (default:
``$REPRO_LEDGER``; ``REPRO_NO_LEDGER=1`` silences both) and appends one
append-only JSONL record per executed point (``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from typing import List, Optional

from repro.config import (DOUBLE_CHANNEL_DESIGNS, SINGLE_CHANNEL_DESIGNS,
                          DesignPoint, table2_config)
from repro.core.designs import PROTOCOL_DESIGNS
from repro.energy.dram_power import DramEnergyModel
from repro.sim.stats import RunResult
from repro.utils.canonical import canonical_json
from repro.workloads.spec import get_profile, profile_names
from repro.workloads.synthetic import generate_trace
from repro.workloads.trace import save_trace


def _design(name: str) -> DesignPoint:
    for design in DesignPoint:
        if design.value == name:
            return design
    known = ", ".join(design.value for design in DesignPoint)
    raise argparse.ArgumentTypeError(f"unknown design {name!r}; "
                                     f"choose from {known}")


def _at_least(minimum: int):
    """An ``int`` argument type that rejects values below ``minimum``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    parse.__name__ = "int"  # argparse's "invalid int value" message
    return parse


def _print_result(result: RunResult, energy_pj: Optional[float]) -> None:
    print(f"design              {result.design}")
    print(f"workload            {result.workload}")
    print(f"execution cycles    {result.execution_cycles:,}")
    print(f"LLC misses          {result.miss_count:,} "
          f"(hit rate {result.llc_hit_rate:.1%})")
    print(f"accessORAMs/miss    {result.accessorams_per_miss:.2f}")
    print(f"mean miss latency   {result.miss_latency.mean:,.0f} cycles "
          f"(p95 {result.miss_latency.percentile(0.95):,})")
    print(f"main-bus lines      {result.main_bus_lines:,}")
    if energy_pj is not None:
        print(f"memory energy       {energy_pj / 1e6:,.1f} uJ")


@contextmanager
def _specs_of(args):
    """Build a verb's specs, before any work starts: a spec's
    ``ValueError`` is bad input, the verb's usage error (exit 2)."""
    try:
        yield
    except ValueError as error:
        args.verb_parser.error(str(error))


def _ledger(args):
    """The run ledger this invocation appends to (or ``None``)."""
    from repro.obs.ledger import resolve_ledger

    return resolve_ledger(getattr(args, "ledger", None))


def cmd_simulate(args) -> int:
    """Handle ``repro simulate``."""
    from repro.obs.ledger import append_record, host_clock_s
    from repro.obs.tracer import NULL_TRACER, CollectingTracer
    from repro.parallel.sweep import SweepPoint

    tracer = (CollectingTracer() if args.trace_out or args.hotspots
              else NULL_TRACER)
    point = None
    if args.trace_file:
        # a replay runs the file, not the positional workload or
        # --trace-length, so only the design and channels are checked
        if not os.path.isfile(args.trace_file):
            args.verb_parser.error(f"no trace file {args.trace_file!r}")
        with _specs_of(args):
            config = table2_config(args.design, channels=args.channels,
                                   seed=args.seed)
            config.validate()
    else:
        with _specs_of(args):
            point = SweepPoint(args.design, args.workload,
                               channels=args.channels,
                               trace_length=args.trace_length,
                               seed=args.seed,
                               window_cycles=args.window_cycles)
        config = point.system_config()
    started = host_clock_s()
    if point is None:
        from repro.sim.system import run_trace_file

        result = run_trace_file(config, args.trace_file, mlp=args.mlp,
                                tracer=tracer)
    else:
        result = point.simulate(tracer)
    energy = DramEnergyModel(config).report(result).total_pj
    wall_ms = (host_clock_s() - started) * 1000.0
    if point is not None:
        # trace-file replays have no canonical point identity (the
        # point is a local file), so they stay out of the ledger
        append_record(_ledger(args), "simulate", point.ledger_core(result),
                      wall_ms=wall_ms)
    if args.trace_out:
        from repro.obs.chrome import write_chrome_trace

        count = write_chrome_trace(args.trace_out, tracer.events)
        print(f"wrote {count} trace events to {args.trace_out}",
              file=sys.stderr)
    if args.hotspots:
        from repro.obs.profile import hotspots, render_hotspots

        print(render_hotspots(hotspots(tracer.events,
                                       top_n=args.hotspots)))
    if args.json:
        import json

        summary = result.to_dict()
        summary["memory_energy_pj"] = energy
        if args.window_cycles:
            summary["windows"] = result.windows
        print(json.dumps(summary, indent=2))
        return 0
    _print_result(result, energy)
    if args.window_cycles:
        print(f"windows             {len(result.windows)} x "
              f"{args.window_cycles:,} cycles")
    return 0


def cmd_audit_trace(args) -> int:
    """Handle ``repro audit-trace``; exit 0 only if the audit is sound.

    Sound means every secure design's adversary trace is indistinguishable
    across address streams *and* every negative control is flagged as
    distinguishable — the non-secure baseline, the shard-exposing routing,
    the tainted control signal and, with ``--inject-leak``, the LeakyLink
    protocol run — proving the comparison has teeth rather than vacuously
    passing.
    """
    from repro.obs.audit import run_full_audit

    results = run_full_audit(misses=args.misses, accesses=args.accesses,
                             seed=args.seed, with_faults=args.with_faults,
                             inject_leak=args.inject_leak)
    for result in results:
        print(f"{'ok  ' if result.sound else 'BAD '} {result.describe()}")
    sound = all(result.sound for result in results)
    print("audit sound" if sound else "audit UNSOUND", file=sys.stderr)
    return 0 if sound else 1


def cmd_faults(args) -> int:
    """Handle ``repro faults``.

    Runs one seeded fault-injection campaign per requested (design, seed)
    pair — through :func:`~repro.faults.campaign.run_campaign_sweep`, so
    points run in parallel with ``--jobs`` and hit the persistent run
    cache — and prints a detection/recovery summary.  Exit code 0 means every
    campaign finished without a traceback *and* every applied integrity
    fault was detected by a verifier; anything less is a 1.
    """
    from repro.faults.campaign import CampaignSpec, run_campaign_sweep
    from repro.obs.ledger import append_record, campaign_core

    designs = list(args.design or PROTOCOL_DESIGNS)
    seeds = list(args.seeds) if args.seeds else [args.seed]
    with _specs_of(args):
        specs = [CampaignSpec(design=design, accesses=args.accesses,
                              levels=args.levels, sites=args.sites,
                              seed=seed, bit_flips=args.bit_flips,
                              replays=args.replays,
                              stuck_cells=args.stuck_cells,
                              link_drops=args.link_drops,
                              link_duplicates=args.link_duplicates,
                              link_delays=args.link_delays,
                              buffer_stalls=args.buffer_stalls,
                              max_retries=args.retries)
                 for design in designs for seed in seeds]
    outcomes = run_campaign_sweep(specs, jobs=args.jobs,
                                  cache=_sweep_cache(args))
    ledger = _ledger(args)
    for report, meta in outcomes:
        append_record(ledger, "faults", campaign_core(report), args.jobs,
                      **meta)
    reports = [report for report, _ in outcomes]
    import json

    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(canonical_json(reports) + "\n")
        print(f"wrote {len(reports)} campaign reports to {args.report}",
              file=sys.stderr)
    if args.json:
        print(json.dumps(reports, indent=2, sort_keys=True))
    else:
        print(f"{'design':12s} {'seed':>6s} {'inj':>4s} {'det':>4s} "
              f"{'rate':>6s} {'retry':>6s} {'quar':>5s} {'status':>10s}")
        for report in reports:
            detection = report["detection"]["integrity"]
            resilience = report["resilience"]
            status = ("complete" if report["completed"]
                      else "terminal")
            print(f"{report['spec']['design']:12s} "
                  f"{report['spec']['seed']:6d} "
                  f"{detection['applied']:4d} {detection['detected']:4d} "
                  f"{detection['rate']:6.2f} {resilience['retries']:6d} "
                  f"{resilience['quarantines']:5d} {status:>10s}")
    clean = all(report["all_detected"] for report in reports)
    print("all injected integrity faults detected" if clean
          else "UNDETECTED integrity faults escaped a verifier",
          file=sys.stderr)
    return 0 if clean else 1


def cmd_serve_bench(args) -> int:
    """Handle ``repro serve-bench``.

    One :class:`~repro.serve.bench.ServeSpec` per (design, rate) pair,
    swept through :func:`~repro.serve.bench.run_serve_sweep` — cached,
    parallel with ``--jobs``, byte-identical reports either way.  With
    ``--shards N`` (N > 1) each point fans out to one worker process per
    shard and folds into one aggregate report (``docs/serving.md``); the
    ledger then gets one ``serve-shard`` record per shard plus one
    ``serve-sharded`` record per point instead of one ``serve`` record.
    Exit code 0 requires every report's peak queue depth to respect the
    admission bound (the backpressure contract: overload sheds, it never
    buffers unboundedly).
    """
    import json

    from repro.obs.ledger import append_record, serve_core
    from repro.serve.bench import ServeSpec, run_serve_sweep
    from repro.serve.slo import render_table

    designs = list(args.design) if args.design else ["split"]
    rates = list(args.rates) if args.rates else [0.002, 0.008, 0.02]
    with _specs_of(args):
        specs = [ServeSpec(design=design, levels=args.levels,
                           sites=args.sites, rate=rate,
                           requests=args.requests, capacity=args.capacity,
                           batch=args.batch, tenants=args.tenants,
                           arrival=args.arrival, zipf_exponent=args.zipf,
                           write_fraction=args.write_fraction,
                           profile=args.profile, seed=args.seed,
                           adapt=args.adapt, slo_p99=args.slo_target,
                           window_ticks=args.window_ticks,
                           declassified=tuple(args.declassify or ()),
                           shards=args.shards, subtrees=args.subtrees,
                           quarantined=tuple(args.quarantine_shard or ()))
                 for design in designs for rate in rates]
    outcomes = run_serve_sweep(specs, jobs=args.jobs,
                               cache=_sweep_cache(args))
    ledger = _ledger(args)
    for report, meta in outcomes:
        # a shard's time is its point's: its record carries no wall_ms
        for shard_report in report.get("shards", ()):
            append_record(ledger, "serve-shard", serve_core(shard_report),
                          args.jobs, from_cache=meta["from_cache"])
        kind = "serve-sharded" if "shards" in report else "serve"
        append_record(ledger, kind, serve_core(report), args.jobs, **meta)
    reports = [report for report, _ in outcomes]
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write("[")
            handle.write(",".join(canonical_json(report)
                                  for report in reports))
            handle.write("]\n")
        print(f"wrote {len(reports)} serving reports to {args.report}",
              file=sys.stderr)
    if args.json:
        print(json.dumps(reports, indent=2, sort_keys=True))
    elif args.shards > 1:
        for report in reports:
            _print_sharded(report)
    else:
        for design in designs:
            block = [report for report in reports
                     if report["spec"]["design"] == design]
            print(render_table(block, title=design))
        for report in reports:
            control = report.get("control")
            if not control:
                continue
            spec = report["spec"]
            final = control["final"]
            print(f"  control[{spec['design']} rate={spec['rate']}]: "
                  f"{len(control['decisions'])} decisions, "
                  f"{control['applied']} applied over "
                  f"{control['windows']} windows; final "
                  f"batch={final.get('batch')} limit={final.get('limit')}"
                  + (f" modes={final['modes']}" if "modes" in final
                     else ""))
    bounded = all(report["queue"]["depth_bounded"] for report in reports)
    print("queue depth bounded by K everywhere" if bounded
          else "queue-depth bound VIOLATED", file=sys.stderr)
    return 0 if bounded else 1


def _print_sharded(report: dict) -> None:
    """The per-shard table plus degraded, migration and control lines."""
    from repro.serve.slo import render_table

    spec = report["spec"]
    print(render_table(
        report["shards"],
        title=f"{spec['design']} rate={spec['rate']} "
              f"(per shard; {spec['shards']} shards)"))
    degraded = report["degraded"]
    if degraded["quarantined"]:
        print(f"  degraded: shards {degraded['quarantined']} "
              f"quarantined, "
              f"{degraded['degraded_accesses']} degraded accesses, "
              f"{degraded['lost_appends']} lost appends")
    migration = report["migration"]
    print(f"  migration: {migration['migrations']} cross-shard "
          f"moves ({migration['migration_fraction']:.1%}, "
          f"expected {migration['expected_migration_fraction']:.1%}"
          f"), {migration['overflows']} overflows")
    control = report.get("control")
    if control:
        finals = (control.get("migration") or {}).get("final", {})
        print(f"  control: {control['decisions']} decisions, "
              f"{control['applied']} applied (shards + migration); "
              f"final drain p per shard {finals}")


def _sweep_cache(args):
    """Build the run cache a sweep/compare invocation asked for."""
    if args.no_cache:
        return None
    from repro.parallel.cache import RunCache, default_cache_dir

    return RunCache(args.cache_dir or default_cache_dir())


def cmd_compare(args) -> int:
    """Handle ``repro compare``."""
    from repro.parallel.sweep import SweepPoint, run_sweep

    designs = [DesignPoint.NONSECURE, DesignPoint.FREECURSIVE,
               *(SINGLE_CHANNEL_DESIGNS if args.channels == 1
                 else DOUBLE_CHANNEL_DESIGNS)]
    with _specs_of(args):
        points = [SweepPoint(design, args.workload, channels=args.channels,
                             trace_length=args.trace_length, seed=args.seed)
                  for design in designs]
    outcome = run_sweep(points, jobs=args.jobs, cache=_sweep_cache(args))
    outcome.append_ledger(_ledger(args), "compare")
    print(f"{'design':12s} {'cycles':>12s} {'vs freec':>9s} "
          f"{'latency':>9s} {'energy uJ':>10s} {'wall ms':>8s}")
    baseline = None
    for entry in outcome.results:
        result = entry.result
        design = entry.point.design
        energy = DramEnergyModel(entry.point.system_config()).report(
            result).total_pj
        if design is DesignPoint.FREECURSIVE:
            baseline = result
        normalized = (f"{result.normalized_time(baseline):8.3f}"
                      if baseline else "       -")
        wall = "   cache" if entry.from_cache else f"{entry.wall_ms:8.0f}"
        print(f"{design.value:12s} {result.execution_cycles:12,} "
              f"{normalized:>9s} {result.miss_latency.mean:9.0f} "
              f"{energy / 1e6:10.1f} {wall}")
    return 0


def cmd_sweep(args) -> int:
    """Handle ``repro sweep``.

    The table is produced from the merged sweep outcome, so it is
    byte-identical for any ``--jobs`` value (the determinism contract
    ``tests/test_parallel_sweep.py`` pins).
    """
    from repro.parallel.sweep import SweepPoint, run_sweep

    with _specs_of(args):
        points = [SweepPoint(args.design, workload, channels=args.channels,
                             trace_length=args.trace_length, seed=args.seed)
                  for workload in profile_names()]
    outcome = run_sweep(points, jobs=args.jobs, cache=_sweep_cache(args))
    outcome.append_ledger(_ledger(args), "sweep")
    print(f"{'workload':12s} {'cycles':>12s} {'hit':>5s} {'ap/ms':>6s} "
          f"{'latency':>9s}")
    for entry in outcome.results:
        result = entry.result
        print(f"{entry.point.workload:12s} {result.execution_cycles:12,} "
              f"{result.llc_hit_rate:5.2f} "
              f"{result.accessorams_per_miss:6.2f} "
              f"{result.miss_latency.mean:9.0f}")
    return 0


def cmd_overflow(args) -> int:
    """Handle ``repro overflow``."""
    # the Fig 13a random walk is the one numpy user; only this verb loads it
    from repro.analysis.queueing import transfer_queue_overflow_probability
    from repro.analysis.random_walk import (
        displacement_exceedance_probability)

    print("Figure 13a: P(queue displacement > size) after "
          f"{args.steps:,} steps")
    for size in (16, 64, 256, 1024):
        probability = displacement_exceedance_probability(size, args.steps)
        print(f"  {size:5d}  {probability:7.1%}")
    print("\nFigure 13b: M/M/1/K overflow probability")
    print("  K \\ p " + "".join(f"{p:>10.2f}" for p in
                                (0.01, 0.05, 0.1, 0.2)))
    for capacity in (8, 32, 128):
        row = "".join(
            f"{transfer_queue_overflow_probability(p, capacity):>10.1e}"
            for p in (0.01, 0.05, 0.1, 0.2))
        print(f"  {capacity:5d}{row}")
    return 0


def cmd_coresident(args) -> int:
    """Handle ``repro coresident``."""
    from repro.sim.coresident import CoResidentExperiment

    designs = (DesignPoint.NONSECURE, DesignPoint.FREECURSIVE,
               DesignPoint.SPLIT_2, DesignPoint.INDEP_2)
    print(f"{'design under load':18s} {'VM latency':>11s} {'vs idle':>9s}")
    floor = None
    for design in designs:
        result = CoResidentExperiment(design, seed=args.seed).run(
            oram_requests=args.requests, vm_requests=args.requests)
        if floor is None:
            floor = result.mean_latency
        print(f"{design.value:18s} {result.mean_latency:11.0f} "
              f"{result.mean_latency / floor:9.1f}x")
    return 0


def cmd_trace(args) -> int:
    """Handle ``repro trace``."""
    with _specs_of(args):
        profile = get_profile(args.workload)
    records = generate_trace(profile, args.length, seed=args.seed)
    count = save_trace(records, args.output)
    print(f"wrote {count} records of {args.workload!r} to {args.output}")
    return 0


def cmd_lint(args) -> int:
    """Handle ``repro lint``; exit codes 0 clean / 1 findings / 2 errors."""
    from repro.lint.reporting import (render_json, render_rule_list,
                                      render_text)
    from repro.lint.runner import lint_paths
    from repro.lint.sarif import render_sarif

    if args.list_rules:
        print(render_rule_list())
        return 0
    selected = (args.select.split(",") if args.select else None)
    try:
        result = lint_paths(args.paths, selected_rules=selected,
                            warn_unused_suppressions=args.warn_unused_suppressions)
    except FileNotFoundError as error:
        print(f"reprolint: no such path: {error.args[0]}", file=sys.stderr)
        return 2
    except KeyError as error:
        print(f"reprolint: unknown rule {error.args[0]!r} "
              f"(see --list-rules)", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result))
    return result.exit_code()


def cmd_cache(args) -> int:
    """Handle ``repro cache``: inspect or prune the on-disk run cache.

    ``stats`` prints the inventory (entries, how many are stale under
    the current code fingerprint, disk bytes); ``prune`` deletes the
    stale entries and reports how many went.
    """
    from repro.parallel.cache import RunCache, default_cache_dir

    directory = args.cache_dir or default_cache_dir()
    cache = RunCache(directory)
    if args.cache_command == "stats":
        stats = cache.disk_stats()
        print(f"cache directory: {directory}")
        print(f"entries:         {stats['entries']}")
        print(f"stale:           {stats['stale']} "
              "(different code fingerprint; prune reclaims these)")
        print(f"unreadable:      {stats['unreadable']}")
        print(f"disk bytes:      {stats['bytes']}")
        return 0
    removed = cache.prune_stale()
    remaining = cache.entry_count()
    print(f"cache prune: removed {removed} stale entr"
          f"{'y' if removed == 1 else 'ies'} from {directory}; "
          f"{remaining} current entr"
          f"{'y' if remaining == 1 else 'ies'} kept")
    return 0


def cmd_designs(_args) -> int:
    """Handle ``repro designs``."""
    for design in DesignPoint:
        print(design.value)
    return 0


def cmd_workloads(_args) -> int:
    """Handle ``repro workloads``."""
    for name in profile_names():
        profile = get_profile(name)
        print(f"{name:12s} footprint={profile.footprint_bytes >> 20:4d}MiB "
              f"mlp={profile.mlp:2d} writes={profile.write_fraction:.0%}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Secure DIMM (HPCA 2018) reproduction toolkit")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def common(sub):
        sub.add_argument("--channels", type=int, default=1,
                         choices=(1, 2))
        sub.add_argument("--trace-length", type=int, default=4000)
        sub.add_argument("--seed", type=int, default=2018)

    def concurrency(sub):
        sub.add_argument("--jobs", type=_at_least(1), default=1, metavar="N",
                         help="worker processes for independent points "
                              "(1 = in-process serial; output is "
                              "identical for any value)")
        sub.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="persistent run-cache directory (default: "
                              "$REPRO_CACHE_DIR or ./.repro-cache)")
        sub.add_argument("--no-cache", action="store_true",
                         help="always re-simulate; do not read or write "
                              "the run cache")

    def ledger_opt(sub):
        sub.add_argument("--ledger", default=None, metavar="FILE",
                         help="append one performance-ledger record per "
                              "executed point to this JSONL file "
                              "(default: $REPRO_LEDGER; "
                              "REPRO_NO_LEDGER=1 disables)")

    simulate = subparsers.add_parser(
        "simulate", help="run one design on one workload")
    simulate.add_argument("design", type=_design)
    simulate.add_argument("workload", nargs="?", default="mcf")
    simulate.add_argument("--json", action="store_true",
                          help="emit machine-readable results")
    simulate.add_argument("--trace-file", default=None,
                          help="replay a saved trace instead of a profile")
    simulate.add_argument("--mlp", type=int, default=4,
                          help="miss window for --trace-file replays")
    simulate.add_argument("--trace-out", default=None, metavar="FILE",
                          help="write a Chrome trace-event JSON "
                               "(load in Perfetto / chrome://tracing)")
    simulate.add_argument("--hotspots", type=int, default=0, metavar="N",
                          help="print the top-N exclusive-cycle hotspot "
                               "table (implies trace collection)")
    simulate.add_argument("--window-cycles", type=_at_least(0), default=0,
                          metavar="C",
                          help="cut the run's events into tumbling "
                               "C-cycle metric windows (0 = off; collects "
                               "events like --trace-out); --json includes "
                               "the snapshots")
    common(simulate)
    ledger_opt(simulate)
    simulate.set_defaults(handler=cmd_simulate)

    compare = subparsers.add_parser(
        "compare", help="run the whole design space on one workload")
    compare.add_argument("workload")
    common(compare)
    concurrency(compare)
    ledger_opt(compare)
    compare.set_defaults(handler=cmd_compare)

    sweep = subparsers.add_parser(
        "sweep", help="run every workload for one design")
    sweep.add_argument("design", type=_design)
    common(sweep)
    concurrency(sweep)
    ledger_opt(sweep)
    sweep.set_defaults(handler=cmd_sweep)

    overflow = subparsers.add_parser(
        "overflow", help="print the Figure 13 queue analysis")
    overflow.add_argument("--steps", type=int, default=800_000)
    overflow.set_defaults(handler=cmd_overflow)

    coresident = subparsers.add_parser(
        "coresident", help="VM latency next to each secure design")
    coresident.add_argument("--requests", type=int, default=120)
    coresident.add_argument("--seed", type=int, default=2018)
    coresident.set_defaults(handler=cmd_coresident)

    trace = subparsers.add_parser(
        "trace", help="generate a synthetic miss trace file")
    trace.add_argument("workload")
    trace.add_argument("output")
    trace.add_argument("--length", type=int, default=10_000)
    trace.add_argument("--seed", type=int, default=2018)
    trace.set_defaults(handler=cmd_trace)

    audit = subparsers.add_parser(
        "audit-trace",
        help="check adversary-trace indistinguishability across "
             "address streams (the threat model, executed)")
    # shorter streams can coincide: the verdict would be about the input
    audit.add_argument("--misses", type=_at_least(2), default=12,
                       help="misses per timing-tier run (at least 2)")
    audit.add_argument("--accesses", type=_at_least(2), default=48,
                       help="accesses per functional-tier run (at least 2)")
    audit.add_argument("--seed", type=int, default=2018)
    audit.add_argument("--inject-leak", action="store_true",
                       help="also run the LeakyLink fault injection and "
                            "require the audit to catch it")
    audit.add_argument("--with-faults", action="store_true",
                       help="also audit faulted runs: the same fault plan "
                            "applied to two address streams must leave "
                            "secure designs bus-indistinguishable")
    audit.set_defaults(handler=cmd_audit_trace)

    faults = subparsers.add_parser(
        "faults",
        help="run seeded fault-injection campaigns and report "
             "detection / recovery / quarantine accounting")
    faults.add_argument("--design", action="append", default=None,
                        choices=PROTOCOL_DESIGNS,
                        help="protocol to fault (repeatable; default: all)")
    faults.add_argument("--accesses", type=int, default=64)
    faults.add_argument("--levels", type=int, default=5)
    faults.add_argument("--sites", type=int, default=2,
                        help="SDIMM count (independent) or group count "
                             "(indep-split)")
    faults.add_argument("--seed", type=int, default=2018)
    faults.add_argument("--seeds", type=int, nargs="+", default=None,
                        metavar="N", help="sweep several seeds "
                        "(overrides --seed)")
    faults.add_argument("--bit-flips", type=int, default=2)
    faults.add_argument("--replays", type=int, default=1)
    faults.add_argument("--stuck-cells", type=int, default=0)
    faults.add_argument("--link-drops", type=int, default=1)
    faults.add_argument("--link-duplicates", type=int, default=1)
    faults.add_argument("--link-delays", type=int, default=1)
    faults.add_argument("--buffer-stalls", type=int, default=1)
    faults.add_argument("--retries", type=int, default=3,
                        help="retry budget per verified-failed read")
    faults.add_argument("--report", default=None, metavar="FILE",
                        help="write the canonical JSON campaign reports "
                             "(byte-identical across replays)")
    faults.add_argument("--json", action="store_true",
                        help="emit machine-readable reports on stdout")
    concurrency(faults)
    ledger_opt(faults)
    faults.set_defaults(handler=cmd_faults)

    serve = subparsers.add_parser(
        "serve-bench",
        help="open-loop serving rate sweep: admission, batching, "
             "backpressure, SLO quantiles; --shards N serves each point "
             "from N leaf-MSB shards (docs/serving.md)")
    serve.add_argument("--design", action="append", default=None,
                       choices=PROTOCOL_DESIGNS,
                       help="protocol to serve through (repeatable; "
                            "default: split)")
    serve.add_argument("--rates", type=float, nargs="+", default=None,
                       metavar="R", help="offered rates in requests per "
                       "tick (default: 0.002 0.008 0.02)")
    serve.add_argument("--requests", type=int, default=512,
                       help="offered requests per point (pre-routing)")
    serve.add_argument("--capacity", type=int, default=32,
                       help="admission queue capacity K (per shard)")
    serve.add_argument("--batch", type=int, default=8,
                       help="requests drained per scheduling round")
    serve.add_argument("--tenants", type=int, default=1,
                       help="independent tenant streams sharing the rate")
    serve.add_argument("--arrival", default="poisson",
                       choices=("poisson", "burst", "uniform"))
    serve.add_argument("--zipf", type=float, default=0.0,
                       help="Zipf exponent over each tenant's addresses "
                            "(0 = uniform)")
    serve.add_argument("--write-fraction", type=float, default=0.25)
    serve.add_argument("--profile", default=None,
                       help="borrow a workload profile's locality knobs "
                            "(see `repro workloads`)")
    serve.add_argument("--levels", type=int, default=9)
    serve.add_argument("--sites", type=int, default=2,
                       help="SDIMM count (independent) or group count "
                            "(indep-split), per shard")
    serve.add_argument("--seed", type=int, default=2018)
    serve.add_argument("--shards", type=int, default=1,
                       help="worker shard count (power of two; 1 = one "
                            "server)")
    serve.add_argument("--subtrees", type=int, default=16,
                       help="leaf-MSB subtrees on the shard hash ring "
                            "(power of two, >= shards)")
    serve.add_argument("--quarantine-shard", type=int, action="append",
                       default=None, metavar="S",
                       help="run shard S in degraded quarantine mode "
                            "(repeatable; independent/indep-split only)")
    serve.add_argument("--adapt", action="store_true",
                       help="close the loop: admission/batch (and, with "
                            "--declassify, morph) controllers re-plan at "
                            "every window boundary; decisions ride in "
                            "the report's control section")
    serve.add_argument("--slo-target", type=int, default=0,
                       metavar="TICKS",
                       help="p99 sojourn target the admission controller "
                            "steers toward (0 = default)")
    serve.add_argument("--window-ticks", type=int, default=0,
                       metavar="TICKS",
                       help="control window length in ticks (0 = default)")
    serve.add_argument("--declassify", action="append", default=None,
                       metavar="TENANT",
                       help="allow TENANT (t0, t1, ...) to morph into "
                            "non-secure mode under sustained load "
                            "(repeatable; requires --adapt)")
    serve.add_argument("--report", default=None, metavar="FILE",
                       help="write the canonical JSON reports "
                            "(byte-identical across --jobs and replays)")
    serve.add_argument("--json", action="store_true",
                       help="emit machine-readable reports on stdout")
    concurrency(serve)
    ledger_opt(serve)
    serve.set_defaults(handler=cmd_serve_bench)

    lint = subparsers.add_parser(
        "lint", help="run reprolint over source trees")
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text", help="report format")
    lint.add_argument("--select", default=None, metavar="RULES",
                      help="comma-separated rule ids to run (default: all)")
    lint.add_argument("--list-rules", action="store_true",
                      help="describe every registered rule and exit")
    lint.add_argument("--warn-unused-suppressions", action="store_true",
                      help="report directives that no longer suppress "
                           "anything (LINT001)")
    lint.set_defaults(handler=cmd_lint)

    cache = subparsers.add_parser(
        "cache", help="inspect or prune the on-disk run cache")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="entry counts, staleness, and disk usage")
    cache_prune = cache_sub.add_parser(
        "prune", help="delete entries from other code fingerprints")
    for sub in (cache_stats, cache_prune):
        sub.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="cache directory (default: $REPRO_CACHE_DIR "
                              "or ./.repro-cache)")
        sub.set_defaults(handler=cmd_cache)

    subparsers.add_parser("designs", help="list design points") \
        .set_defaults(handler=cmd_designs)
    subparsers.add_parser("workloads", help="list workload profiles") \
        .set_defaults(handler=cmd_workloads)
    for verb in subparsers.choices.values():
        verb.set_defaults(verb_parser=verb)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
