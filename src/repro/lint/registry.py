"""Rule base class and the registry every rule module registers into.

Rules are small AST visitors with metadata.  Registration happens at
import time via the :func:`register` decorator; :func:`all_rules`
instantiates one of each, and :func:`select_rules` narrows that set from
a user-supplied ``--select`` list.  Path scoping lives here too: a rule
declares ``path_markers`` (run only on matching files) and
``exempt_markers`` (never run on matching files) as substrings of the
POSIX-normalized path, so the same rule works on the real tree and on
test fixture trees that mirror its layout.
"""

from __future__ import annotations

import ast
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Type)

from repro.lint.findings import Finding, Severity


class FileContext:
    """Everything a rule may consult about the file under analysis."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path                      # POSIX-normalized
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()


class Rule:
    """Base class for reprolint rules.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding :class:`Finding` objects.  ``rule_id`` doubles as the
    suppression token (``# reprolint: disable=SEC001``).

    Two optional attributes shape how the runner drives a rule:

    * ``project`` — the rule needs the whole program at once; the
      runner calls :meth:`ProjectRule.check_project` with a project
      analysis instead of calling :meth:`check` per file.
    * ``synthetic`` — findings are produced by the runner itself
      (LINT000 parse failures, LINT001 stale suppressions); the rule
      class exists so the id is registered, documented and selectable,
      but :meth:`check` yields nothing.
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""
    severity: Severity = Severity.ERROR
    path_markers: Sequence[str] = ()   # empty means "every file"
    exempt_markers: Sequence[str] = ()
    project: bool = False
    synthetic: bool = False

    def applies_to(self, path: str) -> bool:
        if any(marker in path for marker in self.exempt_markers):
            return False
        if not self.path_markers:
            return True
        return any(marker in path for marker in self.path_markers)

    def check(self, context: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, context: FileContext, node: ast.AST,
                message: str) -> Finding:
        return Finding(rule_id=self.rule_id, path=context.path,
                       line=getattr(node, "lineno", 1),
                       column=getattr(node, "col_offset", 0) + 1,
                       message=message, severity=self.severity)


class ProjectRule(Rule):
    """A rule that analyzes the whole program instead of one file.

    ``check`` never fires (the runner routes project rules through
    :meth:`check_project`); path scoping still applies, but to each
    *finding's* path rather than to whole files up front.
    """

    project = True

    def check(self, context: FileContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, analysis: object) -> Iterator[Finding]:
        """Yield findings for the whole program.

        ``analysis`` is the :class:`repro.lint.runner.ProjectAnalysis`
        the runner built: the call graph plus the taint engine results.
        """
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_class.rule_id:
        raise ValueError(f"{rule_class.__name__} has no rule_id")
    if rule_class.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_class.rule_id}")
    _REGISTRY[rule_class.rule_id] = rule_class
    return rule_class


def all_rule_ids() -> List[str]:
    _ensure_loaded()
    return sorted(_REGISTRY)


def all_rules() -> List[Rule]:
    _ensure_loaded()
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def select_rules(selected: Optional[Iterable[str]] = None) -> List[Rule]:
    """Instantiate the requested rules (all of them when None).

    Raises:
        KeyError: naming an unknown rule id.
    """
    if selected is None:
        return all_rules()
    _ensure_loaded()
    rules = []
    for rule_id in selected:
        token = rule_id.strip().upper()
        if not token:
            continue
        if token not in _REGISTRY:
            raise KeyError(token)
        rules.append(_REGISTRY[token]())
    return rules


def _ensure_loaded() -> None:
    """Import the bundled rule modules exactly once."""
    # Imported lazily to avoid a registry<->rules import cycle.
    import repro.lint.rules  # noqa: F401
