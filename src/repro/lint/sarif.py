"""SARIF 2.1.0 rendering of a lint run.

SARIF (Static Analysis Results Interchange Format) is what code-review
UIs and CI annotation steps ingest.  The document produced here is the
minimal conforming subset: one run, the full rule table in
``tool.driver.rules``, one ``result`` per finding (including LINT000
parse failures), and an ``invocation`` whose ``executionSuccessful``
mirrors the process-level outcome.  Output is fully deterministic —
fixed key order, sorted results — so the artifact diffs cleanly between
CI runs.
"""

from __future__ import annotations

import json
from typing import Dict

from repro.lint.findings import Finding, LintResult
from repro.lint.registry import all_rules

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")

_LEVELS = {"error": "error", "warning": "warning"}


def _rule_entry(rule) -> Dict[str, object]:
    return {
        "id": rule.rule_id,
        "name": rule.title,
        "shortDescription": {"text": rule.title},
        "fullDescription": {"text": rule.rationale},
        "defaultConfiguration": {
            "level": _LEVELS.get(rule.severity.value, "error"),
        },
    }


def _result_entry(finding: Finding) -> Dict[str, object]:
    return {
        "ruleId": finding.rule_id,
        "level": _LEVELS.get(finding.severity.value, "error"),
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": finding.path},
                "region": {
                    "startLine": finding.line,
                    "startColumn": finding.column,
                },
            },
        }],
    }


def to_sarif(result: LintResult) -> Dict[str, object]:
    """The SARIF document as a plain dict."""
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "reprolint",
                    "informationUri":
                        "https://example.invalid/repro/docs/lint.md",
                    "rules": [_rule_entry(rule) for rule in all_rules()],
                },
            },
            "invocations": [{
                "executionSuccessful": result.exit_code() != 2,
                "exitCode": result.exit_code(),
            }],
            "results": [_result_entry(finding)
                        for finding in result.findings],
            "columnKind": "utf16CodeUnits",
        }],
    }


def render_sarif(result: LintResult) -> str:
    return json.dumps(to_sarif(result), indent=2, sort_keys=False)
