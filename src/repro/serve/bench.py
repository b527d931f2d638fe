"""Sweepable serving benchmarks: rate sweeps with caching and fan-out.

``serve-bench`` asks the question the closed-loop figures cannot: *what
request rate can each protocol sustain, and what does the tail look like
on the way to saturation?*  One :class:`ServeSpec` is one point — a
protocol, an offered load, an admission queue, and how many shards
serve it — and a sweep is one :func:`repro.parallel.fanout` call:
cache-first, process-pool fan-out with serial fallback, submission
order.  A single server is the one-shard case; a sharded point
(``shards > 1``) fans its shards out and folds them through
:mod:`repro.serve.router`.  The report list is byte-identical for any
``--jobs`` value and across cached replays.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.control.admission import AdmissionController
from repro.control.morph import MorphController
from repro.control.plane import ServeControlPlane
from repro.crypto.prf import Prf
from repro.obs.metrics import MetricsRegistry
from repro.parallel import fanout
from repro.parallel.cache import RunCache
from repro.parallel.fingerprint import code_fingerprint
from repro.serve.loadgen import (Request, TenantSpec, generate_stream,
                                 merge_streams, tenant_from_profile)
from repro.serve.scheduler import BatchingScheduler, SchedulerOutcome
from repro.serve.slo import REPORT_SCHEMA, SHARD_SCHEMA, build_report
from repro.utils.bitops import is_power_of_two

_DESIGNS = ("independent", "split", "indep-split")

#: Designs whose protocol exposes the ``quarantine`` resilience seam.
_QUARANTINABLE = ("independent", "indep-split")

#: Shard-tier fields: validated and serialized only when ``shards > 1``,
#: so a one-shard spec keeps the single-server report bytes.
_SHARD_FIELDS = ("shards", "subtrees", "virtual_nodes",
                 "migration_capacity", "migration_drain", "quarantined")

#: adaptive-run defaults when the spec leaves them at 0 (auto)
DEFAULT_WINDOW_TICKS = 1024
DEFAULT_SLO_P99 = 2048

#: Key material for bench protocols (serving always encrypts on-DIMM).
_SERVE_KEY = b"serve-bench-key"
#: Root the per-shard keys derive from (``Prf`` needs 16 key bytes, and
#: ``_SERVE_KEY`` has 15).
_SHARD_KEY_ROOT = b"serve-bench-shard-key-root"


@dataclass(frozen=True)
class ServeSpec:
    """One serving benchmark point (picklable, canonical, cache-keyable).

    ``shards == 1`` is the single server.  ``shards > 1`` is the sharded
    tier (docs/serving.md): the leaf space is cut into ``subtrees``
    leaf-MSB slices, a consistent-hash ring maps them onto ``shards``
    workers, and each worker serves its slice behind its own admission
    queue of ``capacity``.
    """

    design: str = "split"
    levels: int = 9
    sites: int = 2
    #: aggregate offered arrival rate, requests per tick (split evenly
    #: across tenants)
    rate: float = 0.002
    requests: int = 512
    #: admission queue capacity K (per shard)
    capacity: int = 32
    #: batch drained per scheduling round (1 = no batching)
    batch: int = 8
    tenants: int = 1
    arrival: str = "poisson"
    zipf_exponent: float = 0.0
    write_fraction: float = 0.25
    #: borrow hot-set locality from this workload profile (None = uniform)
    profile: Optional[str] = None
    seed: int = 2018
    blocks_per_bucket: int = 4
    block_bytes: int = 64
    stash_capacity: int = 256
    #: close the loop: admission/batch (and, with declassified tenants,
    #: morph) controllers re-plan at every window boundary; sharded
    #: points add a drain controller per migration queue
    adapt: bool = False
    #: p99 sojourn target in ticks (0 = DEFAULT_SLO_P99)
    slo_p99: int = 0
    #: control window length in ticks (0 = DEFAULT_WINDOW_TICKS)
    window_ticks: int = 0
    #: tenants the operator allows to morph into non-secure mode
    declassified: Tuple[str, ...] = ()
    #: worker shard count (power of two; 1 = the single server)
    shards: int = 1
    #: leaf-MSB subtrees on the hash ring (power of two, >= shards)
    subtrees: int = 16
    #: virtual ring nodes per shard (evens out the consistent hash)
    virtual_nodes: int = 8
    #: cross-shard migration transfer-queue capacity K (Section IV-C)
    migration_capacity: int = 64
    #: per-arrival drain-lottery probability p of the migration queue
    migration_drain: float = 0.05
    #: shards whose whole protocol is quarantined (degraded mode)
    quarantined: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        # JSON round-trips deliver lists; the spec stays hashable
        object.__setattr__(self, "declassified",
                           tuple(self.declassified))
        object.__setattr__(self, "quarantined",
                           tuple(sorted({int(s) for s in self.quarantined})))
        if self.design not in _DESIGNS:
            raise ValueError(f"unknown design {self.design!r}; "
                             f"expected one of {_DESIGNS}")
        if self.rate < 0:
            raise ValueError("rate must be non-negative")
        if self.requests < 0:
            raise ValueError("request count must be non-negative")
        if self.capacity < 1:
            raise ValueError("admission capacity must be at least 1")
        if self.batch < 1:
            raise ValueError("batch must be at least 1")
        if self.tenants < 1:
            raise ValueError("need at least one tenant")
        if self.levels < 3:
            raise ValueError("serving trees need at least 3 levels")
        if self.design != "split":
            # sites are SDIMMs (independent) or split groups (indep-split),
            # each owning a leaf-MSB subtree at least one level deep
            if not is_power_of_two(self.sites):
                raise ValueError(f"{self.design} needs a power-of-two "
                                 f"site count, got {self.sites}")
            if self.sites.bit_length() > self.levels:
                raise ValueError(f"a {self.levels}-level tree is too "
                                 f"shallow for {self.sites} sites")
        if self.slo_p99 < 0:
            raise ValueError("SLO target must be non-negative")
        if self.window_ticks < 0:
            raise ValueError("control window must be non-negative")
        if self.declassified and not self.adapt:
            raise ValueError("declassified tenants need --adapt")
        unknown = sorted(set(self.declassified)
                         - {f"t{index}" for index in range(self.tenants)})
        if unknown:
            raise ValueError(f"unknown declassified tenants {unknown}; "
                             f"tenants are t0..t{self.tenants - 1}")
        try:
            self.tenant_specs()
        except KeyError as error:  # an unknown workload profile
            raise ValueError(error.args[0]) from None
        self._check_shard_tier()

    def _check_shard_tier(self) -> None:
        if not is_power_of_two(self.shards):
            raise ValueError("shard count must be a power of two")
        if self.shards == 1:
            if self.quarantined:
                raise ValueError("quarantining a shard needs shards > 1")
            return
        if not is_power_of_two(self.subtrees):
            raise ValueError("subtree count must be a power of two")
        if self.subtrees < self.shards:
            raise ValueError("need at least one subtree per shard")
        if self.subtrees > self.address_limit:
            raise ValueError("more subtrees than leaves: "
                             f"{self.subtrees} > {self.address_limit}")
        if self.virtual_nodes < 1:
            raise ValueError("need at least one virtual node per shard")
        if self.migration_capacity < 1:
            raise ValueError("migration queue needs capacity >= 1")
        if not 0.0 <= self.migration_drain <= 1.0:
            raise ValueError("migration drain must be a probability")
        for shard in self.quarantined:
            if not 0 <= shard < self.shards:
                raise ValueError(f"quarantined shard {shard} out of range")
        if self.quarantined and self.design not in _QUARANTINABLE:
            raise ValueError(
                f"design {self.design!r} has no quarantine seam; "
                f"choose one of {_QUARANTINABLE}")

    @property
    def effective_window_ticks(self) -> int:
        return self.window_ticks or DEFAULT_WINDOW_TICKS

    @property
    def effective_slo_p99(self) -> int:
        return self.slo_p99 or DEFAULT_SLO_P99

    def control_plane(self) -> Optional[ServeControlPlane]:
        """The spec's adaptive control plane (None on open-loop runs).

        Built fresh per run: controllers carry run state, so sharing one
        across runs would leak decisions between replays.
        """
        if not self.adapt:
            return None
        admission = AdmissionController(self.effective_slo_p99,
                                        self.capacity,
                                        batch_size=self.batch)
        morph = (MorphController(frozenset(self.declassified))
                 if self.declassified else None)
        return ServeControlPlane(self.effective_window_ticks,
                                 admission=admission, morph=morph,
                                 block_bytes=self.block_bytes)

    @property
    def address_limit(self) -> int:
        """The protocol's address space: one block per leaf."""
        return 1 << (self.levels - 1)

    def to_dict(self) -> Dict[str, object]:
        payload = asdict(self)
        payload["declassified"] = list(self.declassified)
        payload["quarantined"] = list(self.quarantined)
        if self.shards == 1:
            for key in _SHARD_FIELDS:
                del payload[key]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ServeSpec":
        return cls(**{key: payload[key]
                      for key in cls.__dataclass_fields__  # noqa: SLF001
                      if key in payload})

    def tenant_specs(self) -> List[TenantSpec]:
        """Split the offered load across per-tenant streams."""
        per_rate = self.rate / self.tenants
        base_requests, remainder = divmod(self.requests, self.tenants)
        span = max(1, self.address_limit // self.tenants)
        specs = []
        for index in range(self.tenants):
            count = base_requests + (1 if index < remainder else 0)
            name = f"t{index}"
            if self.profile is not None:
                spec = tenant_from_profile(name, self.profile,
                                           rate=per_rate, requests=count,
                                           address_span=span,
                                           arrival=self.arrival)
            else:
                spec = TenantSpec(name=name, rate=per_rate, requests=count,
                                  arrival=self.arrival, address_span=span,
                                  zipf_exponent=self.zipf_exponent,
                                  hot_span=max(1, span // 4),
                                  write_fraction=self.write_fraction)
            specs.append(spec)
        return specs


def serving_key(spec: ServeSpec, shard: int = 0) -> bytes:
    """The protocol key of one shard.

    A one-shard spec keeps ``_SERVE_KEY``.  Each shard of a sharded spec
    gets its own key from the PRF's ``derive:`` domain, so two shards
    never share a pad for an equal (bucket, counter).
    """
    if spec.shards == 1:
        return _SERVE_KEY
    return Prf(_SHARD_KEY_ROOT).derive_key(f"shard/{shard}")


def build_serving_protocol(spec: ServeSpec, shard: int = 0):
    """One protocol instance wired for serving (link metering on)."""
    key = serving_key(spec, shard)
    if spec.design == "independent":
        from repro.core.independent import IndependentProtocol

        return IndependentProtocol(
            global_levels=spec.levels, sdimm_count=spec.sites,
            blocks_per_bucket=spec.blocks_per_bucket,
            block_bytes=spec.block_bytes,
            stash_capacity=spec.stash_capacity, seed=spec.seed,
            record_link=True, encryption_key=key)
    if spec.design == "split":
        from repro.core.split import SplitProtocol

        return SplitProtocol(
            levels=spec.levels, ways=2,
            blocks_per_bucket=spec.blocks_per_bucket,
            block_bytes=spec.block_bytes,
            stash_capacity=spec.stash_capacity, seed=spec.seed,
            key=key, record_link=True)
    from repro.core.indep_split import IndepSplitProtocol

    return IndepSplitProtocol(
        global_levels=spec.levels, groups=spec.sites, ways=2,
        blocks_per_bucket=spec.blocks_per_bucket,
        block_bytes=spec.block_bytes,
        stash_capacity=spec.stash_capacity, seed=spec.seed,
        key=key, record_link=True)


def generate_requests(spec: ServeSpec):
    """The spec's full open-loop timeline (merged across tenants)."""
    streams = [generate_stream(tenant, spec.seed,
                               base_address=index *
                               max(1, spec.address_limit // spec.tenants),
                               address_limit=spec.address_limit,
                               block_bytes=spec.block_bytes)
               for index, tenant in enumerate(spec.tenant_specs())]
    return merge_streams(streams)


def serve_requests(spec: ServeSpec, requests: Sequence[Request], *,
                   shard: int = 0,
                   quarantined: bool = False,
                   metrics: Optional[MetricsRegistry] = None,
                   keep_read_bytes: bool = False
                   ) -> Tuple[object, SchedulerOutcome]:
    """Serve one timeline through a fresh protocol and bounded scheduler.

    The single server passes the whole timeline, a shard worker its
    routed slice and its index ``shard``, which picks its key.
    ``quarantined`` models a whole-shard outage: every site is
    quarantined, so each access runs the degraded (link-shape
    preserving, zero-data) path and is counted honestly.  Returns the
    protocol and the scheduler outcome.
    """
    protocol = build_serving_protocol(spec, shard)
    if quarantined:
        for site in range(spec.sites):
            protocol.quarantine(site)
    scheduler = BatchingScheduler(protocol, queue_capacity=spec.capacity,
                                  batch_size=spec.batch, metrics=metrics,
                                  keep_read_bytes=keep_read_bytes,
                                  sample_seed=spec.seed,
                                  control=spec.control_plane())
    return protocol, scheduler.run(requests)


def run_serve(spec: ServeSpec,
              keep_read_bytes: bool = False) -> Dict[str, object]:
    """Execute one single-server point; returns the canonical report."""
    if spec.shards != 1:
        raise ValueError("run_serve serves one shard; sweep sharded "
                         "points through run_serve_sweep")
    _, outcome = serve_requests(spec, generate_requests(spec),
                                keep_read_bytes=keep_read_bytes)
    report = build_report(spec.to_dict(), outcome,
                          queue_capacity=spec.capacity,
                          offered_rate=spec.rate)
    if keep_read_bytes:
        report["_read_bytes"] = {f"{tenant}:{sequence}": data.hex()
                                 for (tenant, sequence), data
                                 in sorted(outcome.read_bytes.items())}
    return report


# ----------------------------------------------------------------------
# The cached, parallel rate sweep
# ----------------------------------------------------------------------

def serve_cache_key(spec: ServeSpec,
                    fingerprint: Optional[str] = None) -> str:
    """Content hash identifying one serving request."""
    request = {
        "artifact": "serve-bench",
        "schema": REPORT_SCHEMA if spec.shards == 1 else SHARD_SCHEMA,
        "spec": spec.to_dict(),
        "fingerprint": fingerprint if fingerprint is not None
        else code_fingerprint(),
    }
    rendered = json.dumps(request, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(rendered.encode()).hexdigest()


def _serve_point(task: Tuple[ServeSpec, int]) -> Dict[str, object]:
    """One sweep point: a single server, or shards fanned over ``jobs``."""
    spec, jobs = task
    if spec.shards == 1:
        return run_serve(spec)
    # imported here: the router builds on this module
    from repro.serve.router import fan_out_shards

    return fan_out_shards(spec, jobs)


def run_serve_sweep(specs: Sequence[ServeSpec], jobs: int = 1,
                    cache: Optional[RunCache] = None,
                    meta: Optional[List[Dict[str, object]]] = None
                    ) -> List[Dict[str, object]]:
    """Run several serving points; reports come back in submission order.

    One :func:`repro.parallel.fanout` call: cache-first, warm pool with
    serial fallback, byte-identical regardless of completion order or
    ``jobs``.  Single-server points run in parallel; once any point is
    sharded, the points run in-process and each fans its own shards out
    over ``jobs`` workers, so pools never nest.

    ``meta``, when given, receives one ``{"wall_ms", "from_cache"}`` dict
    per spec (submission order) — the volatile side-channel the ledger
    records; the returned reports never contain it.
    """
    specs = list(specs)
    point_jobs = jobs if all(spec.shards == 1 for spec in specs) else 1
    fingerprint = code_fingerprint() if cache is not None else None
    outcomes = fanout([(spec, jobs) for spec in specs], _serve_point,
                      jobs=point_jobs, cache=cache,
                      key=lambda task: serve_cache_key(
                          task[0], fingerprint=fingerprint))
    if meta is not None:
        meta.extend(entry for _, entry in outcomes)
    return [report for report, _ in outcomes]
