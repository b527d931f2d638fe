"""Human-readable and machine-readable renderings of a lint run.

The JSON schema is versioned and append-only: tools may rely on every
field present in ``SCHEMA_VERSION`` 1 staying put with the same types.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict

from repro.lint.findings import LintResult
from repro.lint.registry import all_rules

SCHEMA_VERSION = 1


def render_text(result: LintResult) -> str:
    """The classic compiler-style report, one line per finding."""
    lines = [finding.render() for finding in result.findings]
    lines += [error.render() for error in result.errors]
    noun = "file" if result.files_checked == 1 else "files"
    summary = (f"reprolint: {result.files_checked} {noun} checked, "
               f"{len(result.findings)} finding"
               f"{'' if len(result.findings) == 1 else 's'}")
    if result.suppressed_count:
        summary += f" ({result.suppressed_count} suppressed)"
    if result.errors:
        summary += f", {len(result.errors)} file error" \
                   f"{'' if len(result.errors) == 1 else 's'}"
    lines.append(summary)
    return "\n".join(lines)


def to_payload(result: LintResult) -> Dict[str, object]:
    """The JSON document as a plain dict (tests validate this shape)."""
    by_rule = Counter(finding.rule_id for finding in result.findings)
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "reprolint",
        "findings": [finding.to_dict() for finding in result.findings],
        "errors": [error.to_dict() for error in result.errors],
        "summary": {
            "files_checked": result.files_checked,
            "finding_count": len(result.findings),
            "suppressed_count": result.suppressed_count,
            "error_count": len(result.errors),
            "by_rule": dict(sorted(by_rule.items())),
        },
        "exit_code": result.exit_code(),
    }


def render_json(result: LintResult) -> str:
    return json.dumps(to_payload(result), indent=2, sort_keys=False)


def render_rule_list() -> str:
    """``--list-rules`` output: id, scope and rationale for every rule."""
    blocks = []
    for rule in all_rules():
        scope = (", ".join(rule.path_markers) if rule.path_markers
                 else "all files")
        if rule.exempt_markers:
            scope += f" (exempt: {', '.join(rule.exempt_markers)})"
        blocks.append(f"{rule.rule_id}  {rule.title}\n"
                      f"    scope: {scope}\n"
                      f"    {rule.rationale}")
    return "\n".join(blocks)
