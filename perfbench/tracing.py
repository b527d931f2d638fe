"""The traced run: spans at each layer's public boundary, from outside.

:func:`traced` replaces the public functions listed in :data:`TARGETS`
with wrappers for the duration of a ``with`` block and restores them on
exit; nothing under ``src/`` changes.  A wrapper records one span (name,
start, end, parent, request/point id) per call.  Only calls under a root
span — ``SimulationDriver.run``, ``BatchingScheduler.run`` or
``build_report``, the timed region of a pass — are recorded, so
construction work outside the measured phase never lands in a layer.

A layer's self time is its spans' duration minus the time its child
spans cover; self times therefore partition the root spans' time
exactly, and :func:`layer_metrics` reports each as a share of it.
Counts are taken at the same boundaries (calls, bytes, hits) or from the
run's own outcome objects.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

from repro.cache.cache import SetAssociativeCache
from repro.core.lowpower import RankPowerManager
from repro.control.plane import ServeControlPlane
from repro.core.indep_split import IndepSplitProtocol
from repro.core.independent import IndependentProtocol
from repro.core.split import SplitProtocol
from repro.crypto.ctr import CounterModeCipher
from repro.crypto.mac import MacEngine, PmmacAuthenticator
from repro.crypto.prf import Prf
from repro.dram.address import AddressMapper
from repro.dram.channel import Channel
from repro.dram.scheduler import FrFcfsScheduler
from repro.fastpath.access import AccessFastPath
from repro.fastpath.runs import FastLowPowerRuns, FastTreeRuns, PathPattern
from repro.oram.integrity import EncryptedBucketStore, PlainBucketStore
from repro.oram.path_oram import Op, PathOram
from repro.oram.plb import PlbFrontend
from repro.oram.posmap import PositionMap
from repro.oram.stash import Stash
from repro.serve import slo
from repro.serve.scheduler import BatchingScheduler
from repro.sim import backends
from repro.sim.cpu import SimulationDriver

import workloads

#: Layers in report order.  Self time outside every wrapped layer
#: function but inside a root span goes to the root's layer.
LAYERS = ("serve", "control", "core", "crypto", "oram", "fastpath", "dram",
          "sim", "cache")

#: Spans kept in memory for the spans file (the first traced pass only).
SPAN_KEEP = 50_000


class SpanRecorder:
    """In-memory spans plus per-layer self time and boundary counts."""

    def __init__(self, keep: int = SPAN_KEEP):
        self.keep = keep
        self.recording = True
        self.spans: List[tuple] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.root_s = 0.0
        self.counts: Counter = Counter()
        self.instances: Dict[str, dict] = defaultdict(dict)
        # open frames: [span id, layer, child seconds]
        self._stack: List[list] = []
        self._depth: Counter = Counter()
        self._next_id = 0
        self._ops = 0
        self._op: Optional[str] = None

    @property
    def span_count(self) -> int:
        return self._next_id

    def reset_counts(self) -> None:
        self.counts.clear()
        self.instances.clear()

    def wrap(self, function, name: str, layer, root: bool = False,
             hook=None, op=None):
        """A recording wrapper around ``function``.

        ``layer`` is a layer name or a function of the bound instance;
        ``hook(recorder, args, result, outer)`` counts after each call,
        ``outer`` being False inside another span of the same layer;
        ``op(recorder, args)`` names the request or point the call starts.
        With ``layer=None`` the wrapper records no span and only runs
        ``hook``, on every call.
        """
        recorder = self
        clock = time.perf_counter

        if layer is None:
            @functools.wraps(function)
            def counted(*args, **kwargs):
                result = function(*args, **kwargs)
                hook(recorder, args, result, True)
                return result

            return counted

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = recorder._stack
            if not stack and not root:
                return function(*args, **kwargs)
            lay = layer if isinstance(layer, str) else layer(args[0])
            outer = recorder._depth[lay] == 0
            parent = stack[-1] if stack else None
            previous_op = recorder._op
            if op is not None and outer:
                recorder._op = op(recorder, args)
            span_id = recorder._next_id
            recorder._next_id += 1
            frame = [span_id, lay, 0.0]
            stack.append(frame)
            recorder._depth[lay] += 1
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                recorder._depth[lay] -= 1
                duration = end - start
                recorder.self_s[lay] += duration - frame[2]
                if parent is None:
                    recorder.root_s += duration
                else:
                    parent[2] += duration
                if recorder.recording and len(recorder.spans) < recorder.keep:
                    recorder.spans.append(
                        (span_id, name, lay, start, end,
                         parent[0] if parent else None, recorder._op))
                recorder._op = previous_op
            if hook is not None:
                hook(recorder, args, result, outer)
            return result

        return traced

    def write_spans(self, path: Path) -> int:
        """Write the kept spans as JSON lines; returns how many."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span_id, name, layer, start, end, parent, op in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "name": name, "layer": layer,
                     "start": start, "end": end, "parent": parent,
                     "op": op}) + "\n")
        return len(self.spans)


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------

def _count(name: str, outer_only: bool = False):
    def hook(recorder, args, result, outer):
        if outer or not outer_only:
            recorder.counts[name] += 1
    return hook


def _prf(recorder, args, result, outer):
    recorder.counts["crypto.prf_calls"] += 1
    recorder.counts["crypto.prf_bytes"] += len(result)


def _cache_layer(cache) -> str:
    # the PLB is a SetAssociativeCache too; its lookups are ORAM work
    return "cache" if cache.name == "llc" else "oram"


def _cache(recorder, args, result, outer):
    if args[0].name == "llc":
        recorder.counts["cache.accesses"] += 1
        recorder.counts["cache.hits"] += int(result.hit)


def _keep(kind: str):
    def hook(recorder, args, result, outer):
        recorder.instances[kind][id(args[0])] = args[0]
    return hook


def _access_op(recorder, args):
    recorder._ops += 1
    return f"access-{recorder._ops}"


def _point_op(recorder, args):
    driver = args[0]
    return f"{driver.config.design.value}/{driver.workload_name}"


#: (owner, attribute, layer, root, hook, op)
TARGETS = (
    (SimulationDriver, "run", "sim", True, None, _point_op),
    (BatchingScheduler, "run", "serve", True, None, None),
    (slo, "build_report", "serve", True, None, None),
    (ServeControlPlane, "flush_until", "control", False, None, None),
    (ServeControlPlane, "flush_final", "control", False, None, None),
    (ServeControlPlane, "note_admitted", "control", False, None, None),
    (ServeControlPlane, "note_shed", "control", False, None, None),
    (ServeControlPlane, "note_completion", "control", False, None, None),
    (ServeControlPlane, "note_write", "control", False, None, None),
    (ServeControlPlane, "plain_read", "control", False, None, None),
    (ServeControlPlane, "plain_write", "control", False, None, None),
    (ServeControlPlane, "take_dirty", "control", False, None, None),
    (SplitProtocol, "access", "core", False,
     _count("core.accesses", outer_only=True), _access_op),
    (IndependentProtocol, "access", "core", False,
     _count("core.accesses", outer_only=True), _access_op),
    (IndepSplitProtocol, "access", "core", False,
     _count("core.accesses", outer_only=True), _access_op),
    (Prf, "evaluate", "crypto", False, _prf, None),
    (CounterModeCipher, "encrypt", "crypto", False, None, None),
    (CounterModeCipher, "decrypt", "crypto", False, None, None),
    (MacEngine, "tag", "crypto", False, _count("crypto.mac_tags"), None),
    (MacEngine, "verify", "crypto", False, None, None),
    (PmmacAuthenticator, "tag", "crypto", False, _count("crypto.mac_tags"),
     None),
    (PmmacAuthenticator, "verify", "crypto", False, None, None),
    (PathOram, "access", "oram", False, _count("oram.path_accesses"), None),
    (PathOram, "access_with_leaves", "oram", False,
     _count("oram.path_accesses"), None),
    (PathOram, "dummy_access", "oram", False, _count("oram.path_accesses"),
     None),
    (PathOram, "read_path_into_stash", "oram", False,
     _count("oram.path_accesses"), None),
    (PathOram, "write_path_from_stash", "oram", False, None, None),
    (PathOram, "relieve_pressure", "oram", False, None, None),
    (EncryptedBucketStore, "read", "oram", False, None, None),
    (EncryptedBucketStore, "write", "oram", False, None, None),
    (PlainBucketStore, "read", "oram", False, None, None),
    (PlainBucketStore, "write", "oram", False, None, None),
    (PositionMap, "lookup", "oram", False, None, None),
    (PositionMap, "remap", "oram", False, None, None),
    (PositionMap, "lookup_and_remap", "oram", False, None, None),
    (PositionMap, "set", "oram", False, None, None),
    (Stash, "__init__", None, False, _keep("stash"), None),
    (PlbFrontend, "__init__", None, False, _keep("plb"), None),
    (Stash, "plan_eviction", "oram", False, None, None),
    (PlbFrontend, "translate", "oram", False, None, None),
    (AccessFastPath, "try_access", "fastpath", False, None, None),
    # the split designs stamp their member passes without try_access
    (backends, "stamp_pass", "fastpath", False, None, None),
    (backends, "pass_eligible", "fastpath", False, None, None),
    (FastTreeRuns, "pattern", "fastpath", False, None, None),
    (FastLowPowerRuns, "pattern", "fastpath", False, None, None),
    (PathPattern, "slices", "fastpath", False, None, None),
    # rank power management wakes and parks DRAM ranks
    (RankPowerManager, "prepare_access", "dram", False, None, None),
    (Channel, "schedule_run", "dram", False, _count("dram.runs_scheduled"),
     None),
    (Channel, "schedule_access", "dram", False,
     _count("dram.runs_scheduled"), None),
    (FrFcfsScheduler, "enqueue", "dram", False, None, None),
    (FrFcfsScheduler, "issue_next", "dram", False, None, None),
    (AddressMapper, "decode", "dram", False, None, None),
    (SetAssociativeCache, "access", _cache_layer, False, _cache, None),
)


@contextmanager
def traced(recorder: SpanRecorder):
    """Wrap every target for the block's duration, then restore it."""
    originals = []
    try:
        for owner, attribute, layer, root, hook, op in TARGETS:
            original = vars(owner)[attribute]
            originals.append((owner, attribute, original))
            label = owner.__name__.rsplit(".", 1)[-1]
            setattr(owner, attribute, recorder.wrap(
                original, f"{label}.{attribute}", layer, root=root,
                hook=hook, op=op))
        yield recorder
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def self_shares(recorder: SpanRecorder) -> Dict[str, float]:
    """Each layer's self time as a percentage of the root spans' time."""
    return {f"{layer}.self_share": 100.0 * _ratio(
                recorder.self_s.get(layer, 0.0), recorder.root_s)
            for layer in LAYERS}


def layer_counts(recorder: SpanRecorder, workload: str, first_pass,
                 gen_s: float) -> Dict[str, float]:
    """Every per-layer count and ratio, from one traced pass."""
    counts = recorder.counts
    metrics: Dict[str, float] = {}
    serve = dict.fromkeys(("serve.batches", "serve.coalesce_frac",
                           "serve.wait_ticks_p99", "control.decisions",
                           "control.applied_frac", "control.plain_accesses",
                           "core.busy_ticks"), 0.0)
    sim = dict.fromkeys(("sim.misses", "dram.requests",
                         "fastpath.attempts", "fastpath.hit_frac",
                         "fastpath.fallbacks"), 0.0)
    sim["oram.path_accesses"] = counts["oram.path_accesses"]
    if workloads.is_sim(workload):
        attempts = sum(item.fastpath[0] for item in first_pass)
        fast = sum(item.fastpath[1] for item in first_pass)
        sim.update({
            "sim.misses": sum(item.result.miss_count for item in first_pass),
            "dram.requests": sum(
                channel["reads"] + channel["writes"]
                for item in first_pass
                for channel in item.result.channel_counters),
            "fastpath.attempts": attempts,
            "fastpath.hit_frac": _ratio(fast, attempts),
            "fastpath.fallbacks": attempts - fast,
            # the timing tier's path accesses are its accessORAMs
            "oram.path_accesses": sum(item.result.accessoram_count
                                      for item in first_pass),
        })
    else:
        outcomes = [item.outcome for item in first_pass]
        admitted_reads = 0
        for item in first_pass:
            shed = {(record.tenant, record.sequence)
                    for record in item.outcome.shed}
            admitted_reads += sum(
                1 for request in item.requests
                if request.op is Op.READ
                and (request.tenant, request.sequence) not in shed)
        decisions = [decision for outcome in outcomes
                     for decision in outcome.decisions]
        serve.update({
            "serve.batches": sum(outcome.batches for outcome in outcomes),
            "serve.coalesce_frac": _ratio(
                sum(outcome.coalesced for outcome in outcomes),
                admitted_reads),
            "serve.wait_ticks_p99": workloads.quantile(
                [record.start - record.request.arrival
                 for outcome in outcomes
                 for record in outcome.completions], 0.99),
            "control.decisions": len(decisions),
            "control.applied_frac": _ratio(
                sum(1 for decision in decisions if decision.applied),
                len(decisions)),
            "control.plain_accesses": sum(outcome.plain_accesses
                                          for outcome in outcomes),
            "core.busy_ticks": sum(outcome.busy_ticks
                                   for outcome in outcomes),
        })
    metrics.update(serve)
    metrics.update(sim)

    plbs = list(recorder.instances["plb"].values())
    metrics.update({
        "core.accesses": counts["core.accesses"],
        "crypto.prf_calls": counts["crypto.prf_calls"],
        "crypto.prf_bytes": counts["crypto.prf_bytes"],
        "crypto.mac_tags": counts["crypto.mac_tags"],
        "oram.stash_peak": max((stash.peak_occupancy for stash
                                in recorder.instances["stash"].values()),
                               default=0),
        "oram.plb_hit_frac": _ratio(sum(plb.plb_hits for plb in plbs),
                                    sum(plb.requests for plb in plbs)),
        "dram.runs_scheduled": counts["dram.runs_scheduled"],
        "cache.llc_hit_frac": _ratio(counts["cache.hits"],
                                     counts["cache.accesses"]),
        "workloads.gen_s": gen_s,
    })
    return metrics
