"""Finding and result types shared by every reprolint rule.

A :class:`Finding` is one diagnostic pinned to a (file, line, column);
a :class:`LintResult` is what one invocation of the runner produces —
the findings that survived suppression plus any files it could not
analyze at all (unreadable or syntactically invalid).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List


class Severity(Enum):
    """How bad a finding is, mirrored into the JSON output verbatim."""

    ERROR = "error"        # violates a security/determinism invariant
    WARNING = "warning"    # suspicious; likely fine but needs a look

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by one rule at one source location."""

    rule_id: str
    path: str
    line: int
    column: int
    message: str
    severity: Severity = Severity.ERROR

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "severity": self.severity.value,
            "message": self.message,
        }

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.column}: "
                f"{self.rule_id} [{self.severity.value}] {self.message}")


@dataclass(frozen=True)
class LintError:
    """A file the runner could not analyze (I/O or syntax error)."""

    path: str
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {"path": self.path, "message": self.message}

    def render(self) -> str:
        return f"{self.path}: error: {self.message}"


@dataclass
class LintResult:
    """Everything one lint run produced, before formatting."""

    findings: List[Finding] = field(default_factory=list)
    errors: List[LintError] = field(default_factory=list)
    files_checked: int = 0
    suppressed_count: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings and not self.errors

    def exit_code(self) -> int:
        """Stable exit codes: 0 clean, 1 findings, 2 analysis errors.

        Analysis errors dominate findings because a file that cannot be
        parsed may hide arbitrarily many violations.
        """
        if self.errors:
            return 2
        if self.findings:
            return 1
        return 0
