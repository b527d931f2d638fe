"""The functional protocol designs by name: one table, one builder.

The three content-carrying designs of Section III are three classes
that name the same settings differently (``global_levels``/``levels``,
``sdimm_count``/``groups``, ``encryption_key``/``key``).
:func:`build_protocol` maps one set of names onto each of them, so the
serving tier, the fault campaigns and the adversary audit pick a design
by name the same way.  The classes load on first build: naming the
designs (the CLI does) imports none of them.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.utils.bitops import is_power_of_two

#: The content-carrying designs, in the order every report lists them.
PROTOCOL_DESIGNS = ("independent", "split", "indep-split")

#: The designs that partition their tree across sites, so their protocol
#: exposes the ``quarantine`` resilience seam; plain Split has one site.
QUARANTINABLE = ("independent", "indep-split")


def design_sites(design: str, sites: int) -> int:
    """The site count ``design`` builds: plain Split always splits two
    ways, so a spec that names it records 2 whatever it was given."""
    return 2 if design == "split" else sites


def check_sites_fit(design: str, levels: int, sites: int) -> None:
    """Raise ``ValueError`` unless ``design`` can build a ``levels``-level
    tree over ``sites`` sites.

    Sites are SDIMMs (independent) or split groups (indep-split), each
    owning a leaf-MSB subtree at least one level deep; plain Split is
    one site.
    """
    if levels < 1:
        raise ValueError(f"a tree needs at least one level, got {levels}")
    if design == "split":
        return
    if not is_power_of_two(sites):
        raise ValueError(f"{design} needs a power-of-two site count, "
                         f"got {sites}")
    if sites.bit_length() > levels:
        raise ValueError(f"a {levels}-level tree is too shallow for "
                         f"{sites} sites")


def build_protocol(design: str, levels: int, sites: int = 2, *,
                   blocks_per_bucket: int = 4, block_bytes: int = 64,
                   stash_capacity: int = 200, seed: int = 2018,
                   key: Optional[bytes] = None,
                   tracer: Tracer = NULL_TRACER):
    """One protocol of ``design`` over a ``levels``-level tree.

    ``sites`` is the SDIMM count (independent) or the group count
    (indep-split); plain Split always splits two ways.  ``key=None``
    keeps each class's default: plaintext stores for Independent, the
    class key for the two split designs.
    """
    common = dict(blocks_per_bucket=blocks_per_bucket,
                  block_bytes=block_bytes, stash_capacity=stash_capacity,
                  seed=seed, tracer=tracer)
    if design == "independent":
        from repro.core.independent import IndependentProtocol

        return IndependentProtocol(global_levels=levels, sdimm_count=sites,
                                   encryption_key=key, **common)
    if key is not None:
        common["key"] = key
    if design == "split":
        from repro.core.split import SplitProtocol

        return SplitProtocol(levels=levels, ways=2, **common)
    if design == "indep-split":
        from repro.core.indep_split import IndepSplitProtocol

        return IndepSplitProtocol(global_levels=levels, groups=sites,
                                  ways=2, **common)
    raise ValueError(f"unknown design {design!r}; "
                     f"expected one of {PROTOCOL_DESIGNS}")
