"""Shared secure-buffer machinery: the encrypted link and its observables.

Section III-G's privacy argument rests on the *nature* of CPU<->SDIMM
communication being fixed: per request, the same commands, the same
directions, the same payload sizes, regardless of address or operation.
:class:`LinkRecorder` captures exactly what a logic analyzer on the memory
channel would see of the encrypted link — command type, direction, target
SDIMM, payload size — so tests can assert that property directly.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from repro.core.commands import SdimmCommand
from repro.obs.tracer import CATEGORY_LINK, NULL_TRACER, StepClock, Tracer


class LinkEvent(NamedTuple):
    """One command observed on the (encrypted) CPU<->SDIMM link."""

    direction: str           # "up" = CPU->SDIMM, "down" = SDIMM->CPU
    command: Optional[SdimmCommand]
    sdimm: int
    payload_bytes: int

    def shape(self) -> Tuple[str, Optional[SdimmCommand], int]:
        """The content-free part of the event (what obliviousness fixes).

        The target SDIMM is excluded: it is a uniform random function of the
        (secret, freshly remapped) leaf, identical in distribution for every
        access pattern.
        """
        return (self.direction, self.command, self.payload_bytes)


class LinkRecorder:
    """Accumulates link events for obliviousness analysis.

    When a :class:`~repro.obs.tracer.Tracer` is attached, every link event
    is also mirrored into the trace as an instant on ``lane`` — the same
    content-free view a logic analyzer sees (direction, command, size,
    target), timestamped on the supplied logical ``clock``.
    """

    def __init__(self, enabled: bool = True, tracer: Tracer = NULL_TRACER,
                 lane: str = "link", clock: Optional[StepClock] = None):
        self.enabled = enabled
        self.events: List[LinkEvent] = []
        self.tracer = tracer
        self.lane = lane
        self.clock = clock if clock is not None else StepClock()

    def up(self, command: SdimmCommand, sdimm: int,
           payload_bytes: int) -> None:
        if self.enabled:
            self.events.append(LinkEvent("up", command, sdimm, payload_bytes))
        if self.tracer.enabled:
            self.tracer.instant(
                command.value if command is not None else "data",
                CATEGORY_LINK, self.lane, self.clock.tick(),
                direction="up", sdimm=sdimm, payload_bytes=payload_bytes)

    def down(self, command: Optional[SdimmCommand], sdimm: int,
             payload_bytes: int) -> None:
        if self.enabled:
            self.events.append(LinkEvent("down", command, sdimm,
                                         payload_bytes))
        if self.tracer.enabled:
            self.tracer.instant(
                command.value if command is not None else "data",
                CATEGORY_LINK, self.lane, self.clock.tick(),
                direction="down", sdimm=sdimm, payload_bytes=payload_bytes)

    def shapes(self) -> List[Tuple[str, Optional[SdimmCommand], int]]:
        return [event.shape() for event in self.events]

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)
