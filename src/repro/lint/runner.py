"""File discovery, rule execution, and the one-pass drive loop.

A lint run is one serial pass.  Each file is read, decoded, parsed and
scanned for suppression directives once, and the file-scoped rules run
on it right away.  The same trees and suppression indexes then build the
whole-program view (:mod:`repro.lint.callgraph`), over which the taint
engine (:mod:`repro.lint.dataflow`) and every
:class:`~repro.lint.registry.ProjectRule` run.

Files that cannot be analyzed (unreadable, undecodable, syntax errors)
become structured LINT000 findings *and* :class:`LintError` entries —
the run degrades instead of aborting, and the exit code stays 2.
``warn_unused_suppressions`` adds LINT001 findings for directives that
silenced nothing, in either the file or the project rules.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Set, Tuple)

from repro.lint.callgraph import Project, build_project
from repro.lint.dataflow import ProgramTaint, analyze
from repro.lint.findings import Finding, LintError, LintResult, Severity
from repro.lint.registry import FileContext, Rule, select_rules
from repro.lint.suppressions import SuppressionIndex, parse_suppressions

_SKIP_DIRECTORIES = {"__pycache__", ".git", ".venv", "venv",
                     ".mypy_cache", ".ruff_cache", ".pytest_cache",
                     "build", "dist"}

_SORT_KEY = (lambda finding: (finding.path, finding.line, finding.column,
                              finding.rule_id, finding.message))


def iter_python_files(paths: Iterable[str]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths``, sorted, without dupes."""
    seen = set()
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            candidates = [root]   # explicit files are linted regardless of suffix
        elif root.is_dir():
            candidates = sorted(
                candidate for candidate in root.rglob("*.py")
                if not (_SKIP_DIRECTORIES &
                        set(part for part in candidate.parts)))
        else:
            raise FileNotFoundError(raw)
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


# ----------------------------------------------------------------------
# Per-file rules
# ----------------------------------------------------------------------

def _lint000(path: str, line: int, column: int, message: str) -> Finding:
    return Finding(rule_id="LINT000", path=path, line=max(1, line),
                   column=max(1, column), message=message,
                   severity=Severity.ERROR)


def _check_source(source: str, posix: str, rules: Sequence[Rule],
                  result: LintResult
                  ) -> Optional[Tuple[ast.Module, SuppressionIndex]]:
    """Parse one file and run the file-scoped rules on it.

    Findings, the suppressed count and the checked-file count go into
    ``result``.  A parse failure becomes a LINT000 finding plus a
    :class:`LintError` and returns None; it never raises.
    """
    try:
        tree = ast.parse(source, filename=posix)
    except SyntaxError as error:
        line = int(error.lineno or 1)
        result.errors.append(LintError(
            posix, f"syntax error at line {line}: {error.msg}"))
        result.findings.append(_lint000(posix, line, int(error.offset or 1),
                                        f"syntax error: {error.msg}"))
        return None
    except (ValueError, RecursionError) as error:
        result.errors.append(LintError(posix, f"unparseable: {error}"))
        result.findings.append(_lint000(
            posix, 1, 1, f"file could not be parsed: {error}"))
        return None
    result.files_checked += 1
    suppressions = parse_suppressions(source)
    context = FileContext(posix, source, tree)
    for rule in rules:
        if rule.project or rule.synthetic:
            continue
        if not rule.applies_to(posix):
            continue
        for finding in rule.check(context):
            if suppressions.is_suppressed(finding.rule_id, finding.line):
                result.suppressed_count += 1
            else:
                result.findings.append(finding)
    return tree, suppressions


# ----------------------------------------------------------------------
# Project rules
# ----------------------------------------------------------------------

class ProjectAnalysis:
    """What a :class:`~repro.lint.registry.ProjectRule` gets to see."""

    def __init__(self, project: Project,
                 suppressions: Dict[str, SuppressionIndex]):
        self.project = project
        self._suppressions = suppressions
        self._taint: Optional[ProgramTaint] = None

    @property
    def taint(self) -> ProgramTaint:
        """The whole-program taint results (computed on first use)."""
        if self._taint is None:
            self._taint = analyze(self.project,
                                  suppressions=self._suppressions)
        return self._taint


# ----------------------------------------------------------------------
# Unused-suppression audit (LINT001)
# ----------------------------------------------------------------------

def _unused_suppression_findings(
        path: str, index: SuppressionIndex,
        active_ids: Set[str]) -> Iterator[Finding]:
    for directive in index.directives:
        scope = directive.scope
        for token in directive.tokens:
            if token == "ALL":
                if not index.scope_has_use(scope):
                    yield _lint001(path, directive.line, token,
                                   directive.file_level)
                continue
            if token not in active_ids:
                continue   # rule did not run; cannot judge the directive
            if (scope, token) in index.used:
                continue
            yield _lint001(path, directive.line, token,
                           directive.file_level)


def _lint001(path: str, line: int, token: str,
             file_level: bool) -> Finding:
    form = "disable-file" if file_level else "disable"
    return Finding(
        rule_id="LINT001", path=path, line=line, column=1,
        message=(f"suppression directive '{form}={token}' suppresses "
                 f"nothing; delete it or re-justify it"),
        severity=Severity.WARNING)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def lint_paths(paths: Iterable[str],
               selected_rules: Optional[Iterable[str]] = None,
               warn_unused_suppressions: bool = False) -> LintResult:
    """Lint every Python file under ``paths`` with the selected rules.

    Raises:
        FileNotFoundError: a requested path does not exist.
        KeyError: ``selected_rules`` names an unknown rule.
    """
    active = select_rules(selected_rules)
    project_rules = [rule for rule in active if rule.project]

    result = LintResult()
    parsed: List[Tuple[str, str, ast.Module]] = []
    suppressions: Dict[str, SuppressionIndex] = {}
    for path in iter_python_files(paths):
        posix = path.as_posix()
        try:
            source = path.read_bytes().decode("utf-8")
        except (OSError, UnicodeDecodeError) as error:
            result.errors.append(LintError(posix, f"unreadable: {error}"))
            result.findings.append(_lint000(
                posix, 1, 1, f"file could not be read: {error}"))
            continue
        checked = _check_source(source, posix, active, result)
        if checked is not None:
            parsed.append((posix, source, checked[0]))
            suppressions[posix] = checked[1]

    if project_rules or warn_unused_suppressions:
        analysis = ProjectAnalysis(build_project(parsed), suppressions)
        for rule in project_rules:
            for finding in rule.check_project(analysis):
                index = suppressions.get(finding.path)
                if index is not None and \
                        index.is_suppressed(finding.rule_id, finding.line):
                    result.suppressed_count += 1
                else:
                    result.findings.append(finding)
        if warn_unused_suppressions:
            active_ids = {rule.rule_id for rule in active
                          if not rule.synthetic}
            for path in sorted(suppressions):
                result.findings.extend(_unused_suppression_findings(
                    path, suppressions[path], active_ids))

    result.findings.sort(key=_SORT_KEY)
    return result


def lint_source(source: str, path: str = "<memory>",
                selected_rules: Optional[Iterable[str]] = None) -> LintResult:
    """Lint an in-memory source string (test and tooling convenience).

    The ``path`` is used for rule scoping exactly as an on-disk path
    would be, so callers can probe path-scoped rules by faking layouts.
    Single-source runs have no whole-program view: project rules are
    skipped.
    """
    result = LintResult()
    _check_source(source, path, select_rules(selected_rules), result)
    # lint_source keeps the historical shape: parse failures are errors
    # only, without a synthetic LINT000 finding.
    result.findings = [finding for finding in result.findings
                       if finding.rule_id != "LINT000"]
    result.findings.sort(key=_SORT_KEY)
    return result
