"""Functional Freecursive ORAM: recursion shortcut by the PLB.

Combines the PLB front end with per-level Path ORAM backends.  Data flows
through ORAM_0 with full fidelity; the PosMap ORAMs are exercised with the
exact access pattern the PLB dictates (reads for chain fetches, writes for
dirty evictions).

Modelling note: PosMap block *content* consistency through the PLB is
maintained by each level's internal position map (the controller mirror),
not by threading leaf entries through PosMap payloads as
:class:`~repro.oram.recursive.RecursiveOram` does.  The observable access
sequence — which ORAM levels are touched, how many paths, read vs write —
is identical to Fletcher et al.'s design; the full content-carrying
recursion is proven separately by ``RecursiveOram``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import OramConfig
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.oram.path_oram import Op, PathOram
from repro.oram.plb import OramAccess, PlbFrontend
from repro.utils.bitops import ceil_log2
from repro.utils.rng import DeterministicRng


class FreecursiveOram:
    """PLB front end + Path ORAM backends, the paper's baseline system.

    ``unified_tree=True`` follows Fletcher et al.'s recommendation (which
    the paper adopts): data and every PosMap level live in *one* tree, so
    an adversary cannot tell which ORAM a path access serves.  Blocks are
    namespaced by level inside the shared address space.  The default
    (separate trees per level) is the simpler construction the recursion
    literature describes.

    With a tracer, bucket touches trace on CPU-side ``main`` lanes: the
    unified tree's on ``main``, separate trees' each on its own
    ``main.oram{level}``, so no lane mixes two trees' bucket indices.
    """

    def __init__(self, config: OramConfig, rng: DeterministicRng,
                 data_levels: Optional[int] = None,
                 plb_enabled: bool = True,
                 unified_tree: bool = False,
                 tracer: Tracer = NULL_TRACER):
        self.config = config
        self.frontend = PlbFrontend(config, enabled=plb_enabled)
        self.rng = rng
        self.unified_tree = unified_tree
        levels = data_levels if data_levels is not None else config.levels
        entry_shift = ceil_log2(config.posmap_entries_per_block)
        self.orams: List[PathOram] = []
        if unified_tree:
            # one tree, sized for the data ORAM (PosMap blocks are a small
            # additional load); every level shares it
            shared = PathOram(
                levels=max(2, levels),
                blocks_per_bucket=config.blocks_per_bucket,
                block_bytes=config.block_bytes,
                stash_capacity=config.stash_capacity,
                rng=rng.child("freecursive-unified"),
                tracer=tracer,
            )
            self.orams = [shared] * (config.recursive_posmaps + 1)
        else:
            for level in range(config.recursive_posmaps + 1):
                level_levels = max(2, levels - entry_shift * level)
                self.orams.append(PathOram(
                    levels=level_levels,
                    blocks_per_bucket=config.blocks_per_bucket,
                    block_bytes=config.block_bytes,
                    stash_capacity=config.stash_capacity,
                    rng=rng.child(f"freecursive-oram{level}"),
                    tracer=tracer,
                    trace_lane=f"main.oram{level}",
                ))

    # ------------------------------------------------------------------

    def read(self, address: int) -> bytes:
        """Read one block through the PLB-shortcut recursion."""
        return self._serve(address, Op.READ, None)

    def write(self, address: int, data: bytes) -> None:
        """Write one block through the PLB-shortcut recursion."""
        self._serve(address, Op.WRITE, data)

    def _serve(self, address: int, op: Op, data: Optional[bytes]) -> bytes:
        result = bytes(self.config.block_bytes)
        for access in self.frontend.translate(address):
            result = self._perform(access, address, op, data)
        return result

    def _namespaced(self, level: int, block_address: int) -> int:
        """Block key inside the unified tree: level tag in the low bits."""
        if not self.unified_tree:
            return block_address
        return (block_address << 3) | level

    def _perform(self, access: OramAccess, address: int, op: Op,
                 data: Optional[bytes]) -> bytes:
        oram = self.orams[access.oram_level]
        if access.oram_level == 0:
            return oram.access(self._namespaced(0, address), op, data)
        key = self._namespaced(access.oram_level, access.block_address)
        if access.is_writeback:
            return oram.access(key, Op.WRITE,
                               bytes(self.config.block_bytes))
        return oram.access(key, Op.READ)

    # ------------------------------------------------------------------

    @property
    def accesses_per_request(self) -> float:
        return self.frontend.accesses_per_request

    @property
    def total_path_accesses(self) -> int:
        distinct = {id(oram): oram for oram in self.orams}
        return sum(oram.access_count for oram in distinct.values())
