"""The four benchmark workloads: inputs, one measured pass, and results.

Every workload is a fixed list of *points* run one after another in this
process.  Inputs come from the benchmark seed alone and are generated
before anything is timed; the program under test receives only those
inputs.  One *pass* runs every point once from freshly built objects, so
repeated passes do identical work and produce identical simulated
results — the benchmark times each pass and checks that they agree.

* ``sim-oram`` / ``sim-baseline`` drive the cycle simulator through the
  public pieces of :func:`repro.sim.system.run_simulation`
  (:func:`~repro.sim.system.build_backend` plus
  :class:`~repro.sim.cpu.SimulationDriver`), fed pre-materialised trace
  records.  Closed loop in simulated time: the MLP-limited core issues a
  miss only when a window slot frees.
* ``serve-read`` / ``serve-write`` drive
  :class:`~repro.serve.scheduler.BatchingScheduler` over a protocol from
  :func:`~repro.serve.bench.build_serving_protocol`, fed the open-loop
  Poisson timeline of :func:`~repro.serve.bench.generate_requests`.  The
  host runs the timeline as fast as it can, so the generator never runs
  late; sojourn is measured in simulated ticks from each request's
  scheduled arrival.

Each timed region is also cut into *segments* at fixed points of the
program's own progress: every :data:`SEGMENT_RECORDS`-th trace record
the driver pulls, or every :data:`SEGMENT_ACCESSES`-th protocol access.
A segment does the same work in every pass, so run.py can take each
segment's fastest time over the passes.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.config import DesignPoint, SystemConfig, table2_config
from repro.fastpath.access import reset_delta_tables
from repro.oram.path_oram import Op
from repro.serve import slo
from repro.serve.bench import (ServeSpec, build_serving_protocol,
                               generate_requests)
from repro.serve.loadgen import Request
from repro.serve.scheduler import BatchingScheduler, SchedulerOutcome
from repro.sim.cpu import SimulationDriver
from repro.sim.events import EventQueue
from repro.sim.stats import RunResult
from repro.sim.system import build_backend
from repro.workloads.spec import get_profile, profile_names
from repro.workloads.synthetic import generate_trace

#: The seed the stored simulator references (reference.json) belong to.
DEFAULT_SEED = 2018

WORKLOADS = ("sim-oram", "sim-baseline", "serve-read", "serve-write")

#: Trace records per timed segment of a simulator run.
SEGMENT_RECORDS = 8

#: Protocol accesses per timed segment of a serving run.
SEGMENT_ACCESSES = 2


def segments(started: float, stamps: List[float], ended: float
             ) -> List[float]:
    """Durations between consecutive boundaries of a timed region."""
    bounds = [started, *stamps, ended]
    return [after - before for before, after in zip(bounds, bounds[1:])]


# ----------------------------------------------------------------------
# Cycle-simulator workloads
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SimPoint:
    design: DesignPoint
    channels: int
    profile: str
    records: int

    @property
    def key(self) -> str:
        return f"{self.design.value}/{self.channels}ch/{self.profile}"


#: Figure 8's single-channel secure designs plus Figure 9's INDEP-4, over
#: profiles spanning LLC miss behaviour (pointer chasing, streaming, a
#: small high-MLP working set).
SIM_ORAM_POINTS = tuple(
    SimPoint(design, channels, profile, 400)
    for profile in ("mcf", "libquantum", "gromacs")
    for design, channels in ((DesignPoint.FREECURSIVE, 1),
                             (DesignPoint.INDEP_2, 1),
                             (DesignPoint.SPLIT_2, 1),
                             (DesignPoint.INDEP_4, 2)))

#: The NONSECURE baseline every figure normalises to, on all ten profiles.
SIM_BASELINE_POINTS = tuple(
    SimPoint(DesignPoint.NONSECURE, 1, profile, 3000)
    for profile in profile_names())


@dataclass
class SimInputs:
    points: tuple
    seed: int
    #: pre-materialised miss trace per point key
    traces: Dict[str, list]


@dataclass
class SimPointResult:
    point: SimPoint
    result: RunResult
    host_s: float
    #: the backend's (fastpath attempts, accesses stamped fast)
    fastpath: tuple
    #: host seconds of each timed segment
    segment_s: List[float]

    @property
    def ops(self) -> int:
        return self.point.records

    @property
    def stats(self) -> Dict[str, object]:
        """The simulated statistics the checks compare."""
        return {"cycles": self.result.execution_cycles,
                "misses": self.result.miss_count,
                "accessorams": self.result.accessoram_count,
                "fastpath_hit_rate": self.result.extras.get(
                    "fastpath_hit_rate", 0.0)}


def sim_config(point: SimPoint, seed: int) -> SystemConfig:
    return table2_config(point.design, point.channels, seed=seed)


def make_sim_inputs(points, seed: int) -> SimInputs:
    """One trace per point, each from its own seed: independent traces
    average out how much one trace's locality happens to favour the LLC
    and PLB, which otherwise moves host cost per record by seed."""
    traces = {point.key: generate_trace(get_profile(point.profile),
                                        point.records,
                                        seed=seed * len(points) + index)
              for index, point in enumerate(points)}
    return SimInputs(points=tuple(points), seed=seed, traces=traces)


def build_sim_point(point: SimPoint, seed: int) -> SimulationDriver:
    """Backend plus driver for one point, exactly as run_simulation
    assembles them."""
    config = sim_config(point, seed)
    events = EventQueue()
    backend = build_backend(config, events)
    return SimulationDriver(config, backend, events,
                            mlp=get_profile(point.profile).mlp,
                            workload_name=point.profile)


def stamped(records: list, stamps: List[float]):
    """Yield ``records``, appending the time before every
    :data:`SEGMENT_RECORDS`-th one is handed out."""
    clock = time.perf_counter
    for start in range(0, len(records), SEGMENT_RECORDS):
        stamps.append(clock())
        yield from records[start:start + SEGMENT_RECORDS]


def run_sim_pass(inputs: SimInputs) -> List[SimPointResult]:
    """One pass over every point; only ``driver.run`` is timed.

    The fastpath's process-wide delta tables are dropped before each
    point so every point (and every pass) starts as a fresh
    ``repro simulate`` process would.  The collector is paused during
    the run, as :func:`repro.sim.system.run_simulation` does.
    """
    results = []
    for point in inputs.points:
        reset_delta_tables()
        gc.collect()
        driver = build_sim_point(point, inputs.seed)
        records = inputs.traces[point.key]
        stamps: List[float] = []
        gc.disable()
        try:
            started = time.perf_counter()
            result = driver.run(stamped(records, stamps),
                                warmup_records=len(records) // 3)
            ended = time.perf_counter()
        finally:
            gc.enable()
        stats = getattr(driver.backend, "fastpath_stats", None)
        results.append(SimPointResult(point, result, ended - started,
                                      stats() if stats else (0, 0),
                                      segments(started, stamps, ended)))
    return results


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------

#: Split protocol, read-mostly, four tenants with Zipf-skewed addresses,
#: offered at ~0.94 of the 1/26 requests-per-tick service capacity so
#: batches fill and duplicate reads coalesce.
SERVE_READ = ServeSpec(design="split", levels=9, sites=2, rate=0.036,
                       requests=128, capacity=32, batch=8, tenants=4,
                       zipf_exponent=0.99, write_fraction=0.1)

#: Independent protocol, write-heavy, uniform addresses over a deeper
#: tree, offered above capacity with the adaptive control plane on and
#: tenant t1 allowed to morph into non-secure mode.  Control windows of
#: 256 ticks let admission shed and t1 morph within a short run.
SERVE_WRITE = ServeSpec(design="independent", levels=12, sites=2,
                        rate=0.2, requests=192, capacity=32, batch=4,
                        tenants=2, write_fraction=0.8, adapt=True,
                        declassified=("t1",), window_ticks=256)

#: Independent serving runs per pass, each from its own seed: short, so
#: a measured phase fits many passes, and pooled for the simulated
#: metrics.
SERVE_RUNS = 8


class TimedProtocol:
    """Protocol wrapper handed to the scheduler: times every ``access``.

    Everything else (the link recorder the scheduler meters service time
    with) passes straight through.  ``stamps`` receives the start time of
    every :data:`SEGMENT_ACCESSES`-th call.  ``corrupt_read`` is the
    negative control: it flips one byte of the n-th read the protocol
    returns.
    """

    def __init__(self, protocol, samples: List[float], stamps: List[float],
                 corrupt_read: Optional[int] = None):
        self._protocol = protocol
        self._samples = samples
        self._stamps = stamps
        self._corrupt_read = corrupt_read
        self._reads = 0

    def __getattr__(self, name):
        return getattr(self._protocol, name)

    def access(self, address, op, data=None):
        started = time.perf_counter()
        if len(self._samples) % SEGMENT_ACCESSES == 0:
            self._stamps.append(started)
        result = self._protocol.access(address, op, data)
        self._samples.append(time.perf_counter() - started)
        if op is Op.READ:
            if self._reads == self._corrupt_read:
                result = bytes([result[0] ^ 0x01]) + result[1:]
            self._reads += 1
        return result


@dataclass
class ServePoint:
    spec: ServeSpec
    requests: List[Request]


@dataclass
class ServeInputs:
    points: List[ServePoint]


@dataclass
class ServePointResult:
    spec: ServeSpec
    requests: List[Request]
    outcome: SchedulerOutcome
    report: Dict[str, object]
    host_s: float
    #: host seconds of each protocol.access call
    access_s: List[float]
    #: host seconds of each timed segment
    segment_s: List[float]

    @property
    def ops(self) -> int:
        return len(self.requests)


def serve_specs(base: ServeSpec, seed: int, runs: int) -> List[ServeSpec]:
    return [replace(base, seed=seed * runs + index) for index in range(runs)]


def make_serve_inputs(base: ServeSpec, seed: int, runs: int) -> ServeInputs:
    return ServeInputs([ServePoint(spec, generate_requests(spec))
                        for spec in serve_specs(base, seed, runs)])


def build_scheduler(spec: ServeSpec, protocol) -> BatchingScheduler:
    """The scheduler exactly as :func:`repro.serve.bench.run_serve` wires
    it, with read bytes kept for the output check."""
    return BatchingScheduler(protocol, queue_capacity=spec.capacity,
                             batch_size=spec.batch, keep_read_bytes=True,
                             sample_seed=spec.seed,
                             control=spec.control_plane())


def run_serve_point(point: ServePoint,
                    corrupt_read: Optional[int] = None) -> ServePointResult:
    """One serving run; the scheduler run and report are timed."""
    spec = point.spec
    gc.collect()
    samples: List[float] = []
    stamps: List[float] = []
    protocol = TimedProtocol(build_serving_protocol(spec), samples, stamps,
                             corrupt_read=corrupt_read)
    scheduler = build_scheduler(spec, protocol)
    started = time.perf_counter()
    outcome = scheduler.run(point.requests)
    report = slo.build_report(spec.to_dict(), outcome,
                              queue_capacity=spec.capacity,
                              offered_rate=spec.rate)
    ended = time.perf_counter()
    return ServePointResult(spec, point.requests, outcome, report,
                            ended - started, samples,
                            segments(started, stamps, ended))


def run_serve_pass(inputs: ServeInputs, corrupt_read: Optional[int] = None
                   ) -> List[ServePointResult]:
    return [run_serve_point(point, corrupt_read) for point in inputs.points]


def quantile(values, fraction: float):
    """Nearest-rank quantile (the serving report's definition), computed
    in integer per-mille steps so 0.99 of 100 samples is rank 99."""
    if not values:
        return 0
    ordered = sorted(values)
    rank = -(-round(fraction * 1000) * len(ordered) // 1000)
    return ordered[max(0, rank - 1)]


# ----------------------------------------------------------------------
# Uniform interface used by run.py
# ----------------------------------------------------------------------

def is_sim(workload: str) -> bool:
    return workload.startswith("sim-")


def make_inputs(workload: str, seed: int):
    if workload == "sim-oram":
        return make_sim_inputs(SIM_ORAM_POINTS, seed)
    if workload == "sim-baseline":
        return make_sim_inputs(SIM_BASELINE_POINTS, seed)
    if workload == "serve-read":
        return make_serve_inputs(SERVE_READ, seed, SERVE_RUNS)
    if workload == "serve-write":
        return make_serve_inputs(SERVE_WRITE, seed, SERVE_RUNS)
    raise ValueError(f"unknown workload {workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")


def run_pass(workload: str, inputs, corrupt_read: Optional[int] = None):
    if is_sim(workload):
        return run_sim_pass(inputs)
    return run_serve_pass(inputs, corrupt_read=corrupt_read)


def build_for_setup(workload: str, seed: int) -> int:
    """Construct everything one pass needs before its first timed call.

    Used by the set-up probe: config, backend and driver per sim point;
    protocol, control plane and scheduler per serving run.  Returns the
    number of objects built, so the work cannot be skipped.
    """
    if is_sim(workload):
        points = (SIM_ORAM_POINTS if workload == "sim-oram"
                  else SIM_BASELINE_POINTS)
        return len([build_sim_point(point, seed) for point in points])
    base = SERVE_READ if workload == "serve-read" else SERVE_WRITE
    return len([build_scheduler(spec, build_serving_protocol(spec))
                for spec in serve_specs(base, seed, SERVE_RUNS)])
