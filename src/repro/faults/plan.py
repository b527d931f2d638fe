"""Fault plans: seeded, serializable schedules of injected faults.

A :class:`FaultPlan` is the unit of reproducibility for the whole fault
layer: two campaigns built from equal plans inject byte-identical fault
sequences, and a plan's :meth:`~FaultPlan.digest` keys the campaign cache.

Faults are scheduled by *position in the access stream*, never by address
or leaf: a spec names the access index it arms at, plus an ordinal within
that access (the n-th bucket read for integrity faults, the n-th link
message for link faults).  Position-based scheduling is what keeps a
faulted run bus-indistinguishable — the same plan applied to two
different address streams perturbs both at exactly the same observable
points (see docs/faults.md).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Sequence, Tuple

from repro.utils.canonical import canonical_digest, canonical_json
from repro.utils.rng import DeterministicRng

#: Transient ciphertext corruption in one stored bucket (heals on re-read).
FAULT_BIT_FLIP = "bit-flip"
#: A stale cell put back in place of the current one (replay attack /
#: a write that silently failed to land).  Transient: heals on re-read.
FAULT_REPLAY = "replay"
#: A stuck DRAM bank: every write to the cell lands corrupted.  Persistent
#: faults exhaust the retry budget and force a quarantine.
FAULT_STUCK_CELL = "stuck-cell"
#: A CPU<->SDIMM link message that never arrives; the sender times out and
#: retransmits (one extra identically-shaped link event).
FAULT_LINK_DROP = "link-drop"
#: A link message delivered twice; the receiver discards the duplicate.
FAULT_LINK_DUPLICATE = "link-duplicate"
#: A link message held up for ``delay_steps`` logical steps.
FAULT_LINK_DELAY = "link-delay"
#: A transient SDIMM buffer stall occupying the timing-tier bus for
#: ``delay_steps`` cycles (consumed by the stall schedule in obs.audit).
FAULT_BUFFER_STALL = "buffer-stall"

#: Kinds that corrupt stored state and must trip a verifier.
INTEGRITY_KINDS = frozenset({FAULT_BIT_FLIP, FAULT_REPLAY, FAULT_STUCK_CELL})
#: Kinds that perturb the CPU<->SDIMM link.
LINK_KINDS = frozenset({FAULT_LINK_DROP, FAULT_LINK_DUPLICATE,
                        FAULT_LINK_DELAY})

_ALL_KINDS = INTEGRITY_KINDS | LINK_KINDS | {FAULT_BUFFER_STALL}


@dataclass(frozen=True, order=True)
class FaultSpec:
    """One scheduled fault.

    ``access_index`` is the protocol access the fault arms at; ``site``
    targets an SDIMM / split way / group for integrity faults (link
    faults match by ordinal only — matching by target would make fault
    application depend on the secret address stream).  ``read_ordinal``
    counts bucket-store reads within the access, ``op_ordinal`` counts
    link messages.  A spec whose ordinal never occurs (short path, cell
    never written) is *vacuous* — recorded, not applied.
    """

    access_index: int
    kind: str
    site: int = 0
    read_ordinal: int = 0
    op_ordinal: int = 0
    persistent: bool = False
    delay_steps: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _ALL_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.access_index < 0:
            raise ValueError("access_index must be non-negative")

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultSpec":
        return cls(access_index=int(payload["access_index"]),
                   kind=str(payload["kind"]),
                   site=int(payload.get("site", 0)),
                   read_ordinal=int(payload.get("read_ordinal", 0)),
                   op_ordinal=int(payload.get("op_ordinal", 0)),
                   persistent=bool(payload.get("persistent", False)),
                   delay_steps=int(payload.get("delay_steps", 0)))


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable schedule of :class:`FaultSpec` entries."""

    seed: int
    specs: Tuple[FaultSpec, ...]

    @property
    def integrity_specs(self) -> Tuple[FaultSpec, ...]:
        return tuple(spec for spec in self.specs
                     if spec.kind in INTEGRITY_KINDS)

    @property
    def link_specs(self) -> Tuple[FaultSpec, ...]:
        return tuple(spec for spec in self.specs if spec.kind in LINK_KINDS)

    @property
    def stall_specs(self) -> Tuple[FaultSpec, ...]:
        return tuple(spec for spec in self.specs
                     if spec.kind == FAULT_BUFFER_STALL)

    def to_dict(self) -> Dict[str, object]:
        return {"seed": self.seed,
                "specs": [spec.to_dict() for spec in self.specs]}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultPlan":
        return cls(seed=int(payload["seed"]),
                   specs=tuple(FaultSpec.from_dict(entry)
                               for entry in payload["specs"]))

    def canonical_json(self) -> str:
        return canonical_json(self.to_dict())

    def digest(self) -> str:
        """Content hash of the plan — part of every campaign cache key."""
        return canonical_digest(self.to_dict())

    @classmethod
    def generate(cls, seed: int, accesses: int, sites: int,
                 bit_flips: int = 0, replays: int = 0,
                 stuck_cells: int = 0, link_drops: int = 0,
                 link_duplicates: int = 0, link_delays: int = 0,
                 buffer_stalls: int = 0,
                 max_read_ordinal: int = 4,
                 max_op_ordinal: int = 6,
                 max_delay_steps: int = 8) -> "FaultPlan":
        """Draw a schedule from a fresh named stream of ``seed``.

        The stream is independent of every simulator stream (distinct
        name), so generating a plan never perturbs protocol randomness.
        Specs come out sorted, giving a canonical order regardless of the
        draw sequence.
        """
        if accesses < 1:
            raise ValueError("a plan needs at least one access")
        if sites < 1:
            raise ValueError("a plan needs at least one site")
        rng = DeterministicRng(seed, "fault-plan")
        specs: List[FaultSpec] = []

        def draw(kind: str, count: int, persistent: bool = False,
                 delayed: bool = False) -> None:
            for _ in range(count):
                specs.append(FaultSpec(
                    access_index=rng.randrange(accesses),
                    kind=kind,
                    site=rng.randrange(sites),
                    read_ordinal=rng.randrange(max(1, max_read_ordinal)),
                    op_ordinal=rng.randrange(max(1, max_op_ordinal)),
                    persistent=persistent,
                    delay_steps=(rng.randint(1, max_delay_steps)
                                 if delayed else 0)))

        draw(FAULT_BIT_FLIP, bit_flips)
        draw(FAULT_REPLAY, replays)
        draw(FAULT_STUCK_CELL, stuck_cells, persistent=True)
        draw(FAULT_LINK_DROP, link_drops)
        draw(FAULT_LINK_DUPLICATE, link_duplicates)
        draw(FAULT_LINK_DELAY, link_delays, delayed=True)
        draw(FAULT_BUFFER_STALL, buffer_stalls, delayed=True)
        return cls(seed=seed, specs=tuple(sorted(specs)))


def merge_plans(plans: Sequence[FaultPlan]) -> FaultPlan:
    """Union several plans into one (seed taken from the first)."""
    if not plans:
        raise ValueError("need at least one plan")
    specs: List[FaultSpec] = []
    for plan in plans:
        specs.extend(plan.specs)
    return FaultPlan(seed=plans[0].seed, specs=tuple(sorted(specs)))
