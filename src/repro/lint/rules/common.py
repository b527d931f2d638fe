"""Shared AST helpers for the rule implementations.

All rules reason about *identifier segments*: ``pmmac_tag`` splits into
``{"pmmac", "tag"}`` so vocabulary matching is whole-word (``mac``
matches ``link_mac`` but not ``machine``).  Dunder names are never
segmented — ``__hash__`` must not look like cryptographic material.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Optional


def identifier_segments(name: str) -> FrozenSet[str]:
    """Lower-cased snake_case segments of an identifier."""
    if name.startswith("__") and name.endswith("__"):
        return frozenset()
    return frozenset(segment for segment in name.lower().split("_")
                     if segment)


def node_name(node: ast.AST) -> Optional[str]:
    """The identifier a Name/Attribute/arg node carries, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.arg):
        return node.arg
    return None


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render a Name/Attribute chain as ``a.b.c`` (None if not a chain)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """The (undotted) name of the function a call invokes."""
    return node_name(node.func)


def head_identifier(node: ast.AST) -> Optional[str]:
    """The identifier that labels the *value* an expression produces.

    ``tag`` -> ``tag``; ``self.link_mac`` -> ``link_mac``;
    ``self.tag(msg)`` -> ``tag`` (a call is named by its callee);
    ``tag[0]`` / ``tag[:8]`` -> ``tag``.  Arithmetic, literals and other
    compound expressions have no head identifier.
    """
    if isinstance(node, (ast.Name, ast.Attribute)):
        return node_name(node)
    if isinstance(node, ast.Call):
        return call_name(node)
    if isinstance(node, ast.Subscript):
        return head_identifier(node.value)
    if isinstance(node, ast.Await):
        return head_identifier(node.value)
    return None
