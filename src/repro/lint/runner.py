"""File discovery, rule execution, and the two-phase drive loop.

A lint run has two phases:

* **per-file** — parse each file once and run every file-scoped rule on
  it.  This phase is embarrassingly parallel (``jobs > 1`` fans it over
  the process pool of :func:`repro.parallel.pool.fanout`, in submission
  order so output is byte-identical to serial) and cacheable (content
  hash + rule set + lint-code fingerprint, see
  :mod:`repro.lint.cache`);
* **project** — build the whole-program view (:mod:`repro.lint
  .callgraph`), run the taint engine (:mod:`repro.lint.dataflow`) and
  every :class:`~repro.lint.registry.ProjectRule` over it.  Inherently
  serial and never cached: it depends on every file at once.

Files that cannot be analyzed (unreadable, undecodable, syntax errors)
become structured LINT000 findings *and* :class:`LintError` entries —
the run degrades instead of aborting, and the exit code stays 2.
``warn_unused_suppressions`` adds LINT001 findings for directives that
silenced nothing across both phases.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Set, Tuple)

from repro.lint.cache import LintCache, entry_key
from repro.lint.callgraph import Project, build_project
from repro.lint.dataflow import ProgramTaint, analyze
from repro.lint.findings import Finding, LintError, LintResult, Severity
from repro.lint.registry import FileContext, Rule, select_rules
from repro.lint.suppressions import (SuppressionIndex, Scope,
                                     parse_suppressions)

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
# Per-file phase
# ----------------------------------------------------------------------

@dataclass
class FileOutcome:
    """Everything the per-file phase produced for one file (picklable)."""

    path: str
    checked: bool = False
    findings: List[Finding] = field(default_factory=list)
    error: Optional[LintError] = None
    suppressed_count: int = 0
    #: ``(scope, token)`` pairs whose directives silenced a finding
    used: List[Tuple[Scope, str]] = field(default_factory=list)


def _lint000(path: str, line: int, column: int, message: str) -> Finding:
    return Finding(rule_id="LINT000", path=path, line=max(1, line),
                   column=max(1, column), message=message,
                   severity=Severity.ERROR)


def check_one_file(path: Path, rules: Sequence[Rule]) -> FileOutcome:
    """Run the file-scoped rules on one file.

    Analysis failures become a LINT000 finding plus a
    :class:`LintError`; they never raise.
    """
    posix = path.as_posix()
    outcome = FileOutcome(path=posix)
    try:
        source = path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as error:
        outcome.error = LintError(posix, f"unreadable: {error}")
        outcome.findings.append(_lint000(
            posix, 1, 1, f"file could not be read: {error}"))
        return outcome
    outcome.findings.extend(lint_source_into(source, posix, rules,
                                             outcome))
    return outcome


def lint_source_into(source: str, posix: str, rules: Sequence[Rule],
                     outcome: FileOutcome) -> List[Finding]:
    """Parse + rule-check source text, recording state into ``outcome``."""
    try:
        tree = ast.parse(source, filename=posix)
    except SyntaxError as error:
        line = int(error.lineno or 1)
        outcome.error = LintError(
            posix, f"syntax error at line {line}: {error.msg}")
        return [_lint000(posix, line, int(error.offset or 1),
                         f"syntax error: {error.msg}")]
    except (ValueError, RecursionError) as error:
        outcome.error = LintError(posix, f"unparseable: {error}")
        return [_lint000(posix, 1, 1, f"file could not be parsed: "
                                      f"{error}")]
    outcome.checked = True
    suppressions = parse_suppressions(source)
    context = FileContext(posix, source, tree)
    findings: List[Finding] = []
    for rule in rules:
        if rule.project or rule.synthetic:
            continue
        if not rule.applies_to(posix):
            continue
        for finding in rule.check(context):
            if suppressions.is_suppressed(finding.rule_id, finding.line):
                outcome.suppressed_count += 1
            else:
                findings.append(finding)
    outcome.used = sorted(suppressions.used,
                          key=lambda pair: (str(pair[0]), pair[1]))
    return findings


def _outcome_to_dict(outcome: FileOutcome) -> Dict[str, object]:
    return {
        "path": outcome.path,
        "checked": outcome.checked,
        "findings": [finding.to_dict() for finding in outcome.findings],
        "error": (None if outcome.error is None
                  else outcome.error.to_dict()),
        "suppressed_count": outcome.suppressed_count,
        "used": [[scope, token] for scope, token in outcome.used],
    }


def _outcome_from_dict(payload: Dict[str, object]) -> FileOutcome:
    error = payload.get("error")
    return FileOutcome(
        path=str(payload["path"]),
        checked=bool(payload["checked"]),
        findings=[Finding(rule_id=str(entry["rule"]),
                          path=str(entry["path"]),
                          line=int(entry["line"]),
                          column=int(entry["column"]),
                          message=str(entry["message"]),
                          severity=Severity(str(entry["severity"])))
                  for entry in payload.get("findings", ())],
        error=(None if error is None
               else LintError(str(error["path"]), str(error["message"]))),
        suppressed_count=int(payload.get("suppressed_count", 0)),
        used=[(scope if isinstance(scope, int) else str(scope),
               str(token))
              for scope, token in payload.get("used", ())],
    )


def _file_worker(task: Tuple[str, Tuple[str, ...], Optional[str]]
                 ) -> Dict[str, object]:
    """Pool worker: one file, cache-first, picklable in and out."""
    raw_path, rule_ids, cache_dir = task
    path = Path(raw_path)
    cache: Optional[LintCache] = None
    key: Optional[str] = None
    if cache_dir is not None:
        cache = LintCache(cache_dir)
        try:
            key = entry_key(path.read_bytes(), rule_ids)
        except OSError:
            key = None
        if key is not None:
            cached = cache.get(key)
            if cached is not None:
                return cached
    rules = select_rules(rule_ids)
    payload = _outcome_to_dict(check_one_file(path, rules))
    if cache is not None and key is not None:
        cache.put(key, payload)
    return payload


def _run_file_phase(files: Sequence[Path], rule_ids: Sequence[str],
                    jobs: int,
                    cache_dir: Optional[str]) -> List[FileOutcome]:
    from repro.parallel.pool import fanout

    tasks = [(str(path), tuple(rule_ids), cache_dir) for path in files]
    return [_outcome_from_dict(payload)
            for payload, _ in fanout(tasks, _file_worker, jobs=jobs)]


# ----------------------------------------------------------------------
# Project phase
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


def _load_project(files: Sequence[Path]
                  ) -> Tuple[Project, Dict[str, SuppressionIndex]]:
    """Re-read and parse every analyzable file for the project phase."""
    triples: List[Tuple[str, str, ast.Module]] = []
    suppressions: Dict[str, SuppressionIndex] = {}
    for path in files:
        posix = path.as_posix()
        try:
            source = path.read_bytes().decode("utf-8")
            tree = ast.parse(source, filename=posix)
        except (OSError, UnicodeDecodeError, SyntaxError, ValueError,
                RecursionError):
            continue   # already reported by the per-file phase
        triples.append((posix, source, tree))
        suppressions[posix] = parse_suppressions(source)
    return build_project(triples), suppressions


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
               jobs: int = 1,
               cache_dir: Optional[str] = None,
               warn_unused_suppressions: bool = False) -> LintResult:
    """Lint every Python file under ``paths`` with the selected rules.

    ``jobs > 1`` fans the per-file phase over a process pool; output is
    byte-identical to serial.  ``cache_dir`` enables the per-file
    result cache.

    Raises:
        FileNotFoundError: a requested path does not exist.
        KeyError: ``selected_rules`` names an unknown rule.
    """
    active = select_rules(selected_rules)
    file_rules = [rule for rule in active
                  if not rule.project and not rule.synthetic]
    project_rules = [rule for rule in active if rule.project]
    file_rule_ids = sorted(rule.rule_id for rule in file_rules)

    files = list(iter_python_files(paths))
    outcomes = _run_file_phase(files, file_rule_ids, jobs, cache_dir)

    result = LintResult()
    worker_used: Dict[str, List[Tuple[Scope, str]]] = {}
    for outcome in outcomes:
        result.findings.extend(outcome.findings)
        result.suppressed_count += outcome.suppressed_count
        if outcome.error is not None:
            result.errors.append(outcome.error)
        if outcome.checked:
            result.files_checked += 1
        worker_used[outcome.path] = outcome.used

    need_project = bool(project_rules) or warn_unused_suppressions
    if need_project:
        project, suppressions = _load_project(files)
        for path, pairs in sorted(worker_used.items()):
            index = suppressions.get(path)
            if index is None:
                continue
            for scope, token in pairs:
                index.mark_used(scope, token)
        analysis = ProjectAnalysis(project, suppressions)
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
    rules = select_rules(selected_rules)
    outcome = FileOutcome(path=path)
    findings = lint_source_into(source, path, rules, outcome)
    result = LintResult(findings=findings,
                        suppressed_count=outcome.suppressed_count)
    if outcome.error is not None:
        result.errors.append(outcome.error)
        # lint_source keeps the historical shape: parse failures are
        # errors only, without a synthetic LINT000 finding.
        result.findings = [finding for finding in result.findings
                           if finding.rule_id != "LINT000"]
    if outcome.checked:
        result.files_checked = 1
    result.findings.sort(key=_SORT_KEY)
    return result
