"""Sweepable serving benchmarks: rate sweeps with caching and fan-out.

``serve-bench`` asks the question the closed-loop figures cannot: *what
request rate can each protocol sustain, and what does the tail look like
on the way to saturation?*  One :class:`ServeSpec` is one point — a
protocol, an offered load, an admission queue — and a sweep is one
:func:`repro.parallel.fanout` call: cache-first, process-pool fan-out
with serial fallback, submission order.  The report list is
byte-identical for any ``--jobs`` value and across cached replays.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.control.admission import AdmissionController
from repro.control.morph import MorphController
from repro.control.plane import ServeControlPlane
from repro.parallel import fanout
from repro.parallel.cache import RunCache
from repro.parallel.fingerprint import code_fingerprint
from repro.serve.loadgen import (TenantSpec, generate_stream,
                                 merge_streams, tenant_from_profile)
from repro.serve.scheduler import BatchingScheduler
from repro.serve.slo import REPORT_SCHEMA, build_report

_DESIGNS = ("independent", "split", "indep-split")

#: adaptive-run defaults when the spec leaves them at 0 (auto)
DEFAULT_WINDOW_TICKS = 1024
DEFAULT_SLO_P99 = 2048

#: Key material for bench protocols (serving always encrypts on-DIMM).
_SERVE_KEY = b"serve-bench-key"


@dataclass(frozen=True)
class ServeSpec:
    """One serving benchmark point (picklable, canonical, cache-keyable)."""

    design: str = "split"
    levels: int = 9
    sites: int = 2
    #: aggregate offered arrival rate, requests per tick (split evenly
    #: across tenants)
    rate: float = 0.002
    requests: int = 512
    #: admission queue capacity K
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
    #: morph) controllers re-plan at every window boundary
    adapt: bool = False
    #: p99 sojourn target in ticks (0 = DEFAULT_SLO_P99)
    slo_p99: int = 0
    #: control window length in ticks (0 = DEFAULT_WINDOW_TICKS)
    window_ticks: int = 0
    #: tenants the operator allows to morph into non-secure mode
    declassified: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # JSON round-trips deliver lists; the spec stays hashable
        object.__setattr__(self, "declassified",
                           tuple(self.declassified))
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
        if self.slo_p99 < 0:
            raise ValueError("SLO target must be non-negative")
        if self.window_ticks < 0:
            raise ValueError("control window must be non-negative")
        if self.declassified and not self.adapt:
            raise ValueError("declassified tenants need --adapt")

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


def build_serving_protocol(spec: ServeSpec):
    """One protocol instance wired for serving (link metering on)."""
    if spec.design == "independent":
        from repro.core.independent import IndependentProtocol

        return IndependentProtocol(
            global_levels=spec.levels, sdimm_count=spec.sites,
            blocks_per_bucket=spec.blocks_per_bucket,
            block_bytes=spec.block_bytes,
            stash_capacity=spec.stash_capacity, seed=spec.seed,
            record_link=True, encryption_key=_SERVE_KEY)
    if spec.design == "split":
        from repro.core.split import SplitProtocol

        return SplitProtocol(
            levels=spec.levels, ways=2,
            blocks_per_bucket=spec.blocks_per_bucket,
            block_bytes=spec.block_bytes,
            stash_capacity=spec.stash_capacity, seed=spec.seed,
            key=_SERVE_KEY, record_link=True)
    from repro.core.indep_split import IndepSplitProtocol

    return IndepSplitProtocol(
        global_levels=spec.levels, groups=spec.sites, ways=2,
        blocks_per_bucket=spec.blocks_per_bucket,
        block_bytes=spec.block_bytes,
        stash_capacity=spec.stash_capacity, seed=spec.seed,
        key=_SERVE_KEY, record_link=True)


def generate_requests(spec: ServeSpec):
    """The spec's full open-loop timeline (merged across tenants)."""
    streams = [generate_stream(tenant, spec.seed,
                               base_address=index *
                               max(1, spec.address_limit // spec.tenants),
                               address_limit=spec.address_limit,
                               block_bytes=spec.block_bytes)
               for index, tenant in enumerate(spec.tenant_specs())]
    return merge_streams(streams)


def run_serve(spec: ServeSpec,
              keep_read_bytes: bool = False) -> Dict[str, object]:
    """Execute one serving point; returns the canonical report dict."""
    protocol = build_serving_protocol(spec)
    requests = generate_requests(spec)
    scheduler = BatchingScheduler(protocol, queue_capacity=spec.capacity,
                                  batch_size=spec.batch,
                                  keep_read_bytes=keep_read_bytes,
                                  sample_seed=spec.seed,
                                  control=spec.control_plane())
    outcome = scheduler.run(requests)
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
        "schema": REPORT_SCHEMA,
        "spec": spec.to_dict(),
        "fingerprint": fingerprint if fingerprint is not None
        else code_fingerprint(),
    }
    rendered = json.dumps(request, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(rendered.encode()).hexdigest()


def run_serve_sweep(specs: Sequence[ServeSpec], jobs: int = 1,
                    cache: Optional[RunCache] = None,
                    meta: Optional[List[Dict[str, object]]] = None
                    ) -> List[Dict[str, object]]:
    """Run several serving points; reports come back in submission order.

    One :func:`repro.parallel.fanout` call: cache-first, warm pool with
    serial fallback, byte-identical regardless of completion order or
    ``jobs``.

    ``meta``, when given, receives one ``{"wall_ms", "from_cache"}`` dict
    per spec (submission order) — the volatile side-channel the ledger
    records; the returned reports never contain it.
    """
    fingerprint = code_fingerprint() if cache is not None else None
    outcomes = fanout(specs, run_serve, jobs=jobs, cache=cache,
                      key=lambda spec: serve_cache_key(
                          spec, fingerprint=fingerprint))
    if meta is not None:
        meta.extend(entry for _, entry in outcomes)
    return [report for report, _ in outcomes]
