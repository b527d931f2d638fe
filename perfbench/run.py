"""Repository benchmark: host speed and simulated results on four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload sim-oram --seed 1 --seconds 22 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is the separate traced run that reports the per-layer metrics.  The
run prints a table of every metric (value, unit, domain, sample count),
writes the same to ``perfbench/out/``, and ends with one JSON line
holding the metrics ``BENCHMARK.json`` names.  The exit code is 1 when an
output check failed and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
OUT = HERE / "out"

#: Environment switches that select another core or add ledger writes.
FORBIDDEN_ENV = ("REPRO_DISABLE_FASTPATH", "REPRO_REFERENCE_CORE",
                 "REPRO_DISABLE_MEMO", "REPRO_LEDGER")

#: Fresh processes timed for setup_s, one at a time between passes.
SETUP_RUNS = 5

NEGATIVE_CONTROLS = ("read-byte", "reference")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Secure DIMM reproduction benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", choices=NEGATIVE_CONTROLS,
                        help="corrupt one output (read-byte) or one stored "
                             "reference (reference) to show the checks "
                             "fail the run")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the workload's simulated statistics "
                             "at the default seed in reference.json")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment():
    """Host facts recorded beside every result."""
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform()}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ----------------------------------------------------------------------
# Set-up probe
# ----------------------------------------------------------------------

def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its ready line."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--probe-setup", "--workload", workload, "--seed", str(seed)]
    started = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE,
                          text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.stdout.read()
        code = child.wait(timeout=60)
    if code != 0 or not line.startswith("ready"):
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def simulated_metrics(workload, first):
    """Simulated end-to-end metrics of the first pass: {name: (value, n)}."""
    import workloads

    if workloads.is_sim(workload):
        return {"sim_cycles": (sum(item.result.execution_cycles
                                   for item in first), len(first))}
    outcomes = [item.outcome for item in first]
    sojourns = [record.sojourn for outcome in outcomes
                for record in outcome.completions]
    target = first[0].spec.effective_slo_p99
    missed = sum(len(outcome.shed) for outcome in outcomes) + sum(
        1 for sojourn in sojourns if sojourn > target)
    offered = sum(outcome.offered for outcome in outcomes)
    accesses = sum(outcome.accesses for outcome in outcomes)
    return {
        "sojourn_ticks_p50": (workloads.quantile(sojourns, 0.50),
                              len(sojourns)),
        "sojourn_ticks_p99": (workloads.quantile(sojourns, 0.99),
                              len(sojourns)),
        "slo_miss_frac": (missed / offered, offered),
        "accesses_per_req": (accesses / len(sojourns), len(sojourns)),
    }


class Measurement:
    """Runs passes, checks each, and accumulates what the metrics need.

    A pass runs every point once.  ``ops_per_s`` is a pass's operations
    over the sum, across every point's timed segments, of each segment's
    fastest time in any pass.  The host is shared and its speed drifts by
    tens of percent over seconds; the fastest of many short timings of
    identical work shifts far less than their median does.
    """

    def __init__(self, workload, inputs, references, expected,
                 corrupt_read):
        import workloads

        self.workload = workload
        self.inputs = inputs
        self.references = references
        self.expected = expected
        self.corrupt_read = corrupt_read
        self.ops = 0
        self.rates = []
        #: fastest host seconds of each point's segments so far
        self.segment_min = None
        self.access_s = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = None

    def run_pass(self):
        import checks
        import workloads

        try:
            outcome = workloads.run_pass(self.workload, self.inputs,
                                         corrupt_read=self.corrupt_read)
        except Exception as error:  # a crash fails the pass's operations
            traceback.print_exc()
            self.attempted += self.ops or 1
            self.failed += self.ops or 1
            self.problems.append(f"pass raised {error!r}")
            return None
        if workloads.is_sim(self.workload):
            failed, problems = checks.check_sim_pass(
                outcome, self.expected, self.references, self.first)
        else:
            failed, problems = checks.check_serve_pass(outcome, self.first)
            for item in outcome:
                self.access_s.extend(item.access_s)
        self.ops = sum(item.ops for item in outcome)
        self.attempted += self.ops
        self.failed += failed
        self.problems.extend(problems)
        self.rates.append(self.ops / sum(item.host_s for item in outcome))
        segment_s = [item.segment_s for item in outcome]
        if self.segment_min is None:
            self.segment_min = segment_s
        elif [len(times) for times in segment_s] != [
                len(times) for times in self.segment_min]:
            self.failed += self.ops
            self.problems.append("segments differ from the first pass")
        else:
            self.segment_min = [list(map(min, fastest, times))
                                for fastest, times in
                                zip(self.segment_min, segment_s)]
        if self.first is None:
            self.first = outcome
        return outcome

    @property
    def ops_per_s(self) -> float:
        return self.ops / sum(map(sum, self.segment_min))

    def reset_timings(self):
        self.rates = []
        self.segment_min = None

    def run_for(self, seconds: float, on_pass=None):
        """Run passes until they (checks included) have taken ``seconds``;
        ``on_pass(outcome, spent)`` runs after each, outside that time."""
        spent = 0.0
        while spent < seconds:
            started = time.perf_counter()
            outcome = self.run_pass()
            spent += time.perf_counter() - started
            if outcome is None:
                return
            if on_pass is not None:
                on_pass(outcome, spent)


def prepare(args):
    """Inputs, check expectations and references for the workload."""
    import checks
    import workloads

    started = time.perf_counter()
    inputs = workloads.make_inputs(args.workload, args.seed)
    gen_s = time.perf_counter() - started
    expected = references = None
    if workloads.is_sim(args.workload):
        expected = checks.llc_expectations(inputs)
        references = checks.load_references(args.workload, args.seed)
        if args.negative_control == "reference":
            if references is None:
                raise ValueError("the reference negative control needs the "
                                 f"default seed {workloads.DEFAULT_SEED}")
            references = checks.perturb(references)
    corrupt = 0 if args.negative_control == "read-byte" else None
    if corrupt is not None and workloads.is_sim(args.workload):
        raise ValueError("the read-byte negative control needs a serve "
                         "workload")
    return Measurement(args.workload, inputs, references, expected,
                       corrupt), gen_s


def measured_run(args):
    """End-to-end metrics, tracing off: {name: (value, n)}."""
    import workloads

    measurement, _ = prepare(args)
    setup = []

    def probe(outcome=None, spent=float("inf")):
        # spread the probes over the measured phase, between passes
        if spent >= len(setup) * args.seconds / SETUP_RUNS:
            setup.append(probe_setup(args.workload, args.seed))

    measurement.run_for(args.seconds, on_pass=probe)
    if not measurement.rates:
        raise RuntimeError("no pass completed: "
                           + "; ".join(measurement.problems))
    while len(setup) < SETUP_RUNS:
        probe()
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "ops_per_s": (measurement.ops_per_s,
                      len(measurement.rates) * measurement.ops),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, 1),
        "error_rate": (measurement.failed / measurement.attempted,
                       measurement.attempted),
    }
    if measurement.access_s:
        samples = [value * 1000.0 for value in measurement.access_s]
        metrics["access_host_ms_p50"] = (
            workloads.quantile(samples, 0.50), len(samples))
        metrics["access_host_ms_p99"] = (
            workloads.quantile(samples, 0.99), len(samples))
    if measurement.first is not None:
        metrics.update(simulated_metrics(args.workload, measurement.first))
    return metrics, measurement


def traced_run(args):
    """Per-layer metrics from a traced run: {name: (value, n)}."""
    import tracing

    measurement, gen_s = prepare(args)
    # untraced reference passes for a third of the time, so the overhead
    # compares fastest segments over several passes on both sides
    measurement.run_for(args.seconds / 3)
    if not measurement.rates:
        raise RuntimeError("; ".join(measurement.problems))
    untraced = measurement.ops_per_s
    measurement.reset_timings()
    recorder = tracing.SpanRecorder()
    counted = {}

    def after_pass(outcome, spent):
        if not counted:
            counted.update(tracing.layer_counts(
                recorder, args.workload, outcome, gen_s))
            recorder.recording = False
        recorder.reset_counts()

    with tracing.traced(recorder):
        recorder.reset_counts()
        measurement.run_for(args.seconds, on_pass=after_pass)
    if not counted:
        raise RuntimeError("no traced pass completed: "
                           + "; ".join(measurement.problems))
    spans = recorder.write_spans(
        OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    passes = len(measurement.rates)
    metrics = {name: (value, passes)
               for name, value in tracing.self_shares(recorder).items()}
    metrics.update({name: (value, 1) for name, value in counted.items()})
    traced_rate = measurement.ops_per_s
    metrics["trace.ops_per_s"] = (traced_rate, passes * measurement.ops)
    metrics["trace.overhead_frac"] = (
        untraced / traced_rate - 1.0 if traced_rate else 0.0, passes)
    print(f"spans kept: {spans} of {recorder.span_count}")
    return metrics, measurement


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------

def report(args, metrics, measurement, env):
    import spec

    known = spec.by_name(spec.PER_LAYER if args.trace else spec.END_TO_END)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} nproc={env['nproc']} "
          f"python={env['python']} platform={env['platform']}")
    print(f"{'metric':24s} {'value':>16s} {'unit':9s} {'domain':10s} n")
    rows = {}
    for name, metric in known.items():
        if name not in metrics:
            continue
        value, samples = metrics[name]
        rows[name] = {"value": value, "unit": metric.unit,
                      "domain": metric.domain, "n": samples}
        print(f"{name:24s} {value:16.6f} {metric.unit:9s} "
              f"{metric.domain:10s} {samples}")
    correct = measurement.failed == 0 and measurement.attempted > 0
    for problem in measurement.problems[:10]:
        print(f"check failed: {problem}")
    OUT.mkdir(exist_ok=True)
    result_path = OUT / (f"{args.workload}-seed{args.seed}"
                         f"-trace{args.trace}.json")
    result_path.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "seconds": args.seconds, "env": env, "correct": correct,
         "attempted": measurement.attempted, "failed": measurement.failed,
         "pass_ops_per_s": measurement.rates, "metrics": rows},
        indent=1, sort_keys=True))
    gated = spec.GATED if not args.trace else tuple(
        metric.name for metric in spec.PER_LAYER)
    print(json.dumps({
        "correct": correct,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {name: {"value": rows[name]["value"],
                           "unit": rows[name]["unit"]}
                    for name in gated}}))
    return 0 if correct else 1


def write_reference(args) -> int:
    import checks
    import workloads

    if not workloads.is_sim(args.workload):
        return fail("references are stored for sim-* workloads only")
    inputs = workloads.make_inputs(args.workload, workloads.DEFAULT_SEED)
    results = workloads.run_pass(args.workload, inputs)
    stored = (json.loads(checks.REFERENCE_PATH.read_text())
              if checks.REFERENCE_PATH.exists() else {})
    stored["seed"] = workloads.DEFAULT_SEED
    stored[args.workload] = {item.point.key: item.stats for item in results}
    checks.REFERENCE_PATH.write_text(json.dumps(stored, indent=1,
                                                sort_keys=True) + "\n")
    print(f"wrote {len(results)} {args.workload} references")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    present = [name for name in FORBIDDEN_ENV if name in os.environ]
    if present:
        return fail(f"refusing to run with {', '.join(present)} set: they "
                    "select another core or add ledger writes")
    if not (SOURCE / "repro" / "__init__.py").is_file():
        return fail(f"no repro package under {SOURCE}; run from a full "
                    "checkout of the repository")
    sys.path.insert(0, str(SOURCE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from "
                    f"{', '.join(workloads.WORKLOADS)}")
    if args.probe_setup:
        built = workloads.build_for_setup(args.workload, args.seed)
        print(f"ready {built}", flush=True)
        return 0
    if args.write_reference:
        return write_reference(args)
    env = environment()
    try:
        if args.trace:
            metrics, measurement = traced_run(args)
        else:
            metrics, measurement = measured_run(args)
    except (ValueError, RuntimeError) as error:
        return fail(str(error))
    return report(args, metrics, measurement, env)


if __name__ == "__main__":
    sys.exit(main())
