"""DET002 — float arithmetic leaking into cycle accounting.

Cycle counters are the simulator's ground truth: golden-master tests
pin exact ``execution_cycles`` values, and the paper's figures are
ratios of them.  IEEE-754 doubles hold integers exactly only up to
2^53, and a single true division (``/``) or float literal turns an
exact counter into an approximate one whose rounding can differ across
platforms and refactorings — cycle counts that are *almost* right are
far harder to debug than ones that are exactly wrong.

Flagged: an assignment (``=``, ``+=``, annotated) or call keyword whose
target/parameter is named ``*_cycle`` / ``*_cycles`` (or exactly
``cycle`` / ``cycles``) and whose value expression syntactically
contains a float literal, a true division ``/``, or a ``float(...)``
call.  Use ``//``, integer multiplies, or convert at the *reporting*
boundary instead (``stats.py`` reports means as floats — that is the
right place).

Scoped to the timing-critical layers: ``sim/``, ``dram/`` and
``fastpath/``.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.lint.findings import Finding
from repro.lint.registry import FileContext, Rule, register


def _is_cycle_name(name: Optional[str]) -> bool:
    if not name:
        return False
    lowered = name.lower()
    return (lowered in {"cycle", "cycles"} or
            lowered.endswith("_cycle") or lowered.endswith("_cycles"))


def _float_taint(value: ast.AST) -> Optional[str]:
    """Why the expression may produce a float, or None if it cannot."""
    for node in ast.walk(value):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return f"float literal {node.value!r}"
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return "true division '/'"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float"):
            return "float() conversion"
    return None


@register
class FloatCycleAccounting(Rule):
    rule_id = "DET002"
    title = "float arithmetic in cycle accounting"
    rationale = ("cycle counters must stay exact integers; floats "
                 "accumulate rounding that breaks golden-master counts — "
                 "use // and convert only at the reporting boundary")
    path_markers = ("sim/", "dram/", "fastpath/")

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            for target_name, value in self._cycle_bindings(node):
                taint = _float_taint(value)
                if taint:
                    yield self.finding(
                        context, node,
                        f"{target_name!r} is assigned from an expression "
                        f"containing {taint}; cycle accounting must use "
                        f"integer arithmetic (// instead of /)")

    @staticmethod
    def _cycle_bindings(node: ast.AST) -> List[Tuple[str, ast.AST]]:
        """(cycle-named target, value expression) pairs bound by ``node``."""
        bindings: List[Tuple[str, ast.AST]] = []
        if isinstance(node, ast.Assign) and node.value is not None:
            for target in node.targets:
                name = _binding_name(target)
                if _is_cycle_name(name):
                    bindings.append((name, node.value))
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            if node.value is not None:
                name = _binding_name(node.target)
                if _is_cycle_name(name):
                    bindings.append((name, node.value))
        elif isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg and _is_cycle_name(keyword.arg):
                    bindings.append((keyword.arg, keyword.value))
        return bindings


def _binding_name(target: ast.AST) -> Optional[str]:
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return None
