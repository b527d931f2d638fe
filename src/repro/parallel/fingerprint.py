"""Code fingerprint: one hash over every source file that can move a run.

The run cache's contract is "a hit equals a re-run".  Simulation results
depend on the *code*, not just the configuration, so the cache key folds
in a digest of the whole ``repro`` package source.  Any committed change
— a timing parameter, a scheduler tweak, a new RNG draw — changes the
fingerprint, every old key becomes unreachable, and the cache cold-starts
instead of serving stale cycles.  (``RunCache.prune_stale`` reclaims the
orphaned entries.)

Hashing the entire package is deliberately coarse: a docstring edit also
invalidates, but a false cold start costs seconds while a false hit
silently corrupts golden-master comparisons.
"""

from __future__ import annotations

import hashlib
import os
from typing import Optional

_cached_fingerprint: Optional[str] = None


def package_root() -> str:
    """Directory of the installed ``repro`` package sources."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def code_fingerprint() -> str:
    """Hex digest over all ``.py`` files under the package (sorted walk).

    Computed once per process; the simulator cannot change underneath a
    running interpreter.
    """
    global _cached_fingerprint
    if _cached_fingerprint is not None:
        return _cached_fingerprint
    base = package_root()
    digest = hashlib.sha256()
    for directory, subdirs, files in sorted(os.walk(base)):
        subdirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            relative = os.path.relpath(path, base)
            digest.update(relative.encode())
            digest.update(b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
            digest.update(b"\0")
    _cached_fingerprint = digest.hexdigest()
    return _cached_fingerprint
