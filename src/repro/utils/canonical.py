"""The canonical JSON form and its content digest.

Reports, cache keys, ledger records and fault plans are rendered with
sorted keys and no whitespace, so equal payloads are equal bytes and the
sha256 of those bytes is a content address.  Two runs of one seed are
compared, cached and pinned through this one rendering.
"""

from __future__ import annotations

import hashlib
import json


def _encode_value(value: object) -> object:
    # enums carry .value; anything else renders as its str
    return getattr(value, "value", str(value))


def canonical_json(payload: object, *, enums: bool = False) -> str:
    """Deterministic JSON rendering (sorted keys, fixed separators).

    ``enums=True`` renders values JSON has no type for (the enums of a
    configuration) through their ``.value``, else their ``str``; without
    it such a value raises ``TypeError``.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=_encode_value if enums else None)


def canonical_digest(payload: object, *, enums: bool = False) -> str:
    """sha256 hex digest of :func:`canonical_json`."""
    return hashlib.sha256(
        canonical_json(payload, enums=enums).encode()).hexdigest()
