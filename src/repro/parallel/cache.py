"""Content-addressed persistent store of fan-out results.

Layout: one JSON file per entry at ``<dir>/<key[:2]>/<key>.json``.  The
store does not build keys: :func:`repro.parallel.pool.fanout` digests
each task's canonical request together with the
:func:`~repro.parallel.fingerprint.code_fingerprint` and the core
selection, so a source change makes every existing entry unreachable —
stale results can never be served.

Each entry is ``{schema, key, fingerprint, digest, payload}``: the
payload is the worker's JSON-friendly result, stored as-is, and
``digest`` is its canonical SHA-256.  A file that fails to parse, fails
digest verification, names another key or carries an unknown schema is
treated as a miss, deleted, and recomputed (corruption heals itself).

Writes are atomic (temp file + ``os.replace``) so a killed worker never
leaves a half-written entry for the next process to trip over.
"""

from __future__ import annotations

import dataclasses
import hmac
import json
import os
import tempfile
from typing import Dict, Iterator, Optional, Tuple

from repro.parallel.fingerprint import code_fingerprint
from repro.utils.canonical import canonical_digest, canonical_json

#: Entry layout version; an entry with any other is a miss.
SCHEMA_VERSION = 2

#: Environment override consulted by CLI/benchmark entry points.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default directory name (relative to the invoking tool's anchor).
DEFAULT_CACHE_DIRNAME = ".repro-cache"


def default_cache_dir(anchor: Optional[str] = None) -> str:
    """Resolve the cache directory: env override, else ``anchor`` dir."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return override
    return os.path.join(anchor or os.getcwd(), DEFAULT_CACHE_DIRNAME)


@dataclasses.dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`RunCache` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corruptions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class RunCache:
    """Persistent, content-addressed store of verified JSON payloads."""

    def __init__(self, directory: str):
        self.directory = directory
        self.stats = CacheStats()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], key + ".json")

    def get_json(self, key: str) -> Optional[Dict[str, object]]:
        """The payload stored under ``key``, or ``None``.

        Schema, key and digest are all checked; a file that fails any
        check is a miss and is deleted, so the rewrite heals the cache.
        """
        path = self._path(key)
        try:
            with open(path, "r") as handle:
                entry = json.load(handle)
            if entry.get("schema") != SCHEMA_VERSION:
                raise ValueError("unknown cache schema")
            if entry.get("key") != key:
                raise ValueError("entry/key mismatch")
            payload = entry["payload"]
            # integrity check against torn/bit-rotted files, not an
            # authentication boundary — but compare_digest costs nothing
            if not hmac.compare_digest(
                    canonical_digest(payload),
                    str(entry.get("digest"))):
                raise ValueError("payload digest mismatch")
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (ValueError, KeyError, TypeError, AttributeError):
            # json.JSONDecodeError is a ValueError; AttributeError is a
            # file that parses to something other than an object
            self.stats.corruptions += 1
            self.stats.misses += 1
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return payload

    def put_json(self, key: str, payload: Dict[str, object],
                 fingerprint: Optional[str] = None) -> str:
        """Store ``payload`` atomically under ``key``; returns the path.

        ``fingerprint`` (default: the running code's) is recorded so
        :meth:`prune_stale` can find entries no key reaches any more.
        """
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entry = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "fingerprint": fingerprint if fingerprint is not None
            else code_fingerprint(),
            "digest": canonical_digest(payload),
            "payload": payload,
        }
        handle, temp_path = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(handle, "w") as stream:
                stream.write(canonical_json(entry))
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.remove(temp_path)
            except OSError:
                pass
            raise
        self.stats.writes += 1
        return path

    # -- maintenance ---------------------------------------------------

    def _inventory(self, fingerprint: Optional[str]
                   ) -> Iterator[Tuple[str, bool, bool]]:
        """``(path, stale, unreadable)`` for every entry on disk.

        Stale means written under another code fingerprint than
        ``fingerprint`` (default: the running code's), or unreadable.
        """
        current = fingerprint if fingerprint is not None \
            else code_fingerprint()
        if not os.path.isdir(self.directory):
            return
        for directory, _, files in sorted(os.walk(self.directory)):
            for name in sorted(files):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(directory, name)
                try:
                    with open(path, "r") as handle:
                        entry = json.load(handle)
                    stale = entry.get("fingerprint") != current
                except (OSError, ValueError, AttributeError):
                    yield path, True, True
                    continue
                yield path, stale, False

    def prune_stale(self, fingerprint: Optional[str] = None) -> int:
        """Delete entries written under a different code fingerprint.

        Stale entries are already unreachable (the fingerprint is part of
        the key); pruning merely reclaims disk.  Returns how many entries
        were removed.
        """
        removed = 0
        for path, stale, _ in list(self._inventory(fingerprint)):
            if stale:
                try:
                    os.remove(path)
                    removed += 1
                except OSError:
                    pass
        return removed

    def entry_count(self) -> int:
        """Number of entries currently on disk."""
        if not os.path.isdir(self.directory):
            return 0
        return sum(name.endswith(".json")
                   for _, _, files in os.walk(self.directory)
                   for name in files)

    def disk_stats(self, fingerprint: Optional[str] = None
                   ) -> Dict[str, int]:
        """On-disk inventory: total/stale/unreadable entries and bytes.

        ``stale`` counts entries :meth:`prune_stale` would delete — ones
        written under a different code fingerprint plus unreadable files
        (the latter also reported separately as ``unreadable``).
        """
        stats = {"entries": 0, "stale": 0, "unreadable": 0, "bytes": 0}
        for path, stale, unreadable in self._inventory(fingerprint):
            stats["entries"] += 1
            stats["stale"] += stale
            stats["unreadable"] += unreadable
            try:
                stats["bytes"] += os.path.getsize(path)
            except OSError:
                pass
        return stats
