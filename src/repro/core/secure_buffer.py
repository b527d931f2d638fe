"""Shared secure-buffer machinery: the encrypted link and its observables.

Section III-G's privacy argument rests on the *nature* of CPU<->SDIMM
communication being fixed: per request, the same commands, the same
directions, the same payload sizes, regardless of address or operation.
:class:`LinkRecorder` emits exactly what a logic analyzer on the memory
channel would see of the encrypted link — command type, direction, target
SDIMM, payload size — as one tracer instant per message, and counts the
messages.  The instants are the adversary's record
(:func:`repro.obs.audit.link_shapes` reads them back); the count is what
the serving tier meters service time by.
"""

from __future__ import annotations

from typing import Optional

from repro.core.commands import SdimmCommand
from repro.obs.tracer import CATEGORY_LINK, NULL_TRACER, StepClock, Tracer


class LinkRecorder:
    """Counts link messages and mirrors each into the trace.

    With a :class:`~repro.obs.tracer.Tracer` attached, every message is an
    instant on ``lane`` named after its command (``"data"`` for a bare
    data burst), carrying ``direction`` (``"up"`` = CPU->SDIMM, ``"down"``
    = SDIMM->CPU), ``sdimm`` and ``payload_bytes``, timestamped on the
    supplied logical ``clock``.  ``len(link)`` is the message count.
    """

    def __init__(self, tracer: Tracer = NULL_TRACER, lane: str = "link",
                 clock: Optional[StepClock] = None):
        self.count = 0
        self.tracer = tracer
        self.lane = lane
        self.clock = clock if clock is not None else StepClock()

    def _emit(self, direction: str, command: Optional[SdimmCommand],
              sdimm: int, payload_bytes: int) -> None:
        self.count += 1
        if self.tracer.enabled:
            self.tracer.instant(
                command.value if command is not None else "data",
                CATEGORY_LINK, self.lane, self.clock.tick(),
                direction=direction, sdimm=sdimm,
                payload_bytes=payload_bytes)

    def up(self, command: SdimmCommand, sdimm: int,
           payload_bytes: int) -> None:
        self._emit("up", command, sdimm, payload_bytes)

    def down(self, command: Optional[SdimmCommand], sdimm: int,
             payload_bytes: int) -> None:
        self._emit("down", command, sdimm, payload_bytes)

    def __len__(self) -> int:
        return self.count
