"""Tests for reprolint: rules, suppressions, output formats, exit codes.

Fixture files under ``tests/fixtures/lint/`` mirror the path layout the
rules scope on (``sim/``, ``crypto/``, ``parallel/``); each rule family has
a violating and a clean fixture, and the suppression fixtures exercise
both directive forms.
"""

import json
import os
import pathlib

import pytest

from repro.cli import main
from repro.lint.registry import all_rule_ids
from repro.lint.reporting import SCHEMA_VERSION, to_payload
from repro.lint.runner import lint_paths, lint_source

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "lint")


def fixture(*parts):
    return os.path.join(FIXTURES, *parts)


def rules_hit(result):
    return sorted({finding.rule_id for finding in result.findings})


class TestRegistry:
    def test_all_families_registered(self):
        assert all_rule_ids() == ["DET001", "DET002", "DET003",
                                  "LINT000", "LINT001",
                                  "SEC001", "SEC003", "SEC004"]

    def test_unknown_rule_selection_raises(self):
        with pytest.raises(KeyError):
            lint_source("x = 1", selected_rules=["NOPE999"])

    def test_selection_narrows(self):
        result = lint_paths([fixture("det001_bad.py")],
                            selected_rules=["SEC001"])
        assert result.findings == []


class TestSec001:
    def test_violations_detected(self):
        result = lint_paths([fixture("sec001_bad.py")])
        sec001 = [finding for finding in result.findings
                  if finding.rule_id == "SEC001"]
        assert len(sec001) == 4
        assert all("compare_digest" in finding.message
                   for finding in sec001)

    def test_clean_fixture(self):
        result = lint_paths([fixture("sec001_ok.py")])
        assert result.findings == []

    def test_fix_pattern_is_clean(self):
        source = ("import hmac\n"
                  "def verify(tag, expected):\n"
                  "    return hmac.compare_digest(tag, expected)\n")
        assert lint_source(source).findings == []


class TestDet001:
    def test_violations_detected(self):
        result = lint_paths([fixture("det001_bad.py")])
        det001 = [finding for finding in result.findings
                  if finding.rule_id == "DET001"]
        assert len(det001) == 9

    def test_clean_fixture(self):
        result = lint_paths([fixture("det001_ok.py")])
        assert result.findings == []

    def test_imap_unordered_order_dependence_detected(self):
        result = lint_paths([fixture("det001_pool_bad.py")])
        assert rules_hit(result) == ["DET001"]
        assert len(result.findings) == 3
        messages = " ".join(finding.message for finding in result.findings)
        assert "imap_unordered" in messages
        assert "completion order" in messages

    def test_imap_unordered_sorted_merges_pass(self):
        result = lint_paths([fixture("det001_pool_ok.py")])
        assert result.findings == []

    def test_imap_unordered_sorted_in_other_scope_still_flagged(self):
        source = ("def consume(pool, run, work):\n"
                  "    out = []\n"
                  "    for item in pool.imap_unordered(run, work):\n"
                  "        out.append(item)\n"
                  "    return out\n"
                  "\n"
                  "def elsewhere(out):\n"
                  "    return sorted(out)\n")
        result = lint_source(source, path="src/repro/sim/fanout.py")
        assert rules_hit(result) == ["DET001"]

    def test_crypto_and_rng_paths_exempt(self):
        result = lint_paths([fixture("crypto", "det001_exempt.py")])
        assert result.findings == []
        source = "import time\nNOW = time.time()\n"
        assert lint_source(source, path="src/repro/utils/rng.py").findings \
            == []
        assert lint_source(source, path="src/repro/sim/cpu.py").findings


class TestDet002:
    def test_violations_detected(self):
        result = lint_paths([fixture("sim", "det002_bad.py")])
        det002 = [finding for finding in result.findings
                  if finding.rule_id == "DET002"]
        assert len(det002) == 5

    def test_clean_fixture(self):
        result = lint_paths([fixture("sim", "det002_ok.py")])
        assert result.findings == []

    def test_scoped_to_timing_layers(self):
        source = "busy_cycles = total / 2\n"
        assert lint_source(source, path="sim/bus.py").findings
        assert lint_source(source, path="fastpath/access.py").findings
        assert not lint_source(source, path="analysis/queueing.py").findings


class TestSuppressions:
    def test_per_line_directive(self):
        source = ("import time\n"
                  "a = time.time()  "
                  "# reprolint: disable=DET001 -- fixture justification\n"
                  "b = time.time()\n")
        result = lint_source(source, path="sim/clock.py")
        assert len(result.findings) == 1      # only the audible one
        assert result.findings[0].line == 3
        assert result.suppressed_count == 1

    def test_sec002_token_does_not_silence_sec003(self, tmp_path):
        # SEC002 is gone: a leftover directive naming it does not carry
        # over to the interprocedural finding.
        target = tmp_path / "core" / "handler.py"
        target.parent.mkdir()
        target.write_text("def handle(leaf):\n"
                          "    if leaf > 4:  "
                          "# reprolint: disable=SEC002 -- legacy\n"
                          "        return 1\n"
                          "    return 0\n")
        result = lint_paths([str(target)])
        assert "SEC003" in rules_hit(result)

    def test_multi_rule_directive(self):
        source = ("import time\n"
                  "busy_cycles = time.time() / 2  "
                  "# reprolint: disable=DET001,DET002 -- both\n")
        result = lint_source(source, path="sim/bus.py")
        assert result.findings == []
        assert result.suppressed_count == 2

    def test_multi_rule_directive_leaves_third_rule_audible(self):
        source = ("import time\n"
                  "busy_cycles = time.time() / 2  "
                  "# reprolint: disable=DET001,SEC001\n")
        result = lint_source(source, path="sim/bus.py")
        assert rules_hit(result) == ["DET002"]
        assert result.suppressed_count == 1

    def test_directive_in_docstring_is_inert(self):
        source = ('"""Docs show: # reprolint: disable-file=DET001."""\n'
                  "import time\n"
                  "NOW = time.time()\n")
        result = lint_source(source)
        assert rules_hit(result) == ["DET001"]
        assert result.suppressed_count == 0

    def test_file_level_directive(self):
        result = lint_paths([fixture("det001_suppressed_file.py")])
        assert result.findings == []
        assert result.suppressed_count == 2

    def test_disable_all_token(self):
        source = ("import time\n"
                  "NOW = time.time()  # reprolint: disable=all\n")
        result = lint_source(source)
        assert result.findings == []
        assert result.suppressed_count == 1

    def test_directive_for_other_rule_does_not_silence(self):
        source = ("import time\n"
                  "NOW = time.time()  # reprolint: disable=SEC001\n")
        result = lint_source(source)
        assert rules_hit(result) == ["DET001"]


class TestPathScoping:
    def test_exempt_marker_beats_scope_marker(self, tmp_path):
        # Precedence: an exempt marker anywhere in the path wins even
        # when a scoped marker also matches.
        source = ("def f(leaf):\n"
                  "    if leaf & 1:\n"
                  "        return 1\n"
                  "    return 0\n")
        scoped = tmp_path / "core" / "handler.py"
        scoped.parent.mkdir()
        scoped.write_text(source)
        exempt = tmp_path / "core" / "crypto" / "session.py"
        exempt.parent.mkdir()
        exempt.write_text(source)
        result = lint_paths([str(tmp_path)])
        assert {os.path.basename(finding.path)
                for finding in result.findings} == {"handler.py"}

    def test_exempt_origin_silences_lifted_findings(self):
        # SEC003 applies the same precedence to the *callee* side: a
        # sink inside crypto/ never lifts into scoped callers.
        from repro.lint.rules.sec003 import InterproceduralSecretFlow
        assert "crypto/" in InterproceduralSecretFlow.exempt_markers
        assert "core/" in InterproceduralSecretFlow.path_markers

    def test_rule_families_scope_independently(self, tmp_path):
        # The same file can be in one family's scope and out of
        # another's: stash code is SEC004 territory, sim/ is not.
        source = "def f(table, leaf):\n    return table[leaf]\n"
        for layer in ("oram", "sim"):
            (tmp_path / layer).mkdir()
        (tmp_path / "oram" / "stash.py").write_text(source)
        (tmp_path / "sim" / "bus.py").write_text(source)
        result = lint_paths([str(tmp_path / "oram"), str(tmp_path / "sim")],
                            selected_rules=["SEC004"])
        assert [pathlib.PurePath(finding.path).parent.name
                for finding in result.findings] == ["oram"]


class TestJsonOutput:
    def test_schema(self):
        result = lint_paths([fixture("det001_bad.py")])
        payload = to_payload(result)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["tool"] == "reprolint"
        assert payload["exit_code"] == 1
        summary = payload["summary"]
        assert summary["files_checked"] == 1
        assert summary["finding_count"] == len(payload["findings"])
        assert summary["by_rule"] == {"DET001": summary["finding_count"]}
        for finding in payload["findings"]:
            assert set(finding) == {"rule", "path", "line", "column",
                                    "severity", "message"}
            assert finding["line"] > 0 and finding["column"] > 0

    def test_round_trips_through_json(self):
        payload = to_payload(lint_paths([fixture("sec001_bad.py")]))
        assert json.loads(json.dumps(payload)) == payload

    def test_findings_sorted(self):
        result = lint_paths([FIXTURES])
        keys = [(finding.path, finding.line, finding.column)
                for finding in result.findings]
        assert keys == sorted(keys)


class TestExitCodes:
    def test_clean_is_zero(self):
        assert lint_paths([fixture("det001_ok.py")]).exit_code() == 0

    def test_findings_are_one(self):
        assert lint_paths([fixture("det001_bad.py")]).exit_code() == 1

    def test_syntax_error_is_two(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        result = lint_paths([str(broken)])
        assert result.exit_code() == 2
        assert "syntax error" in result.errors[0].message


class TestCli:
    def test_clean_run(self, capsys, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main(["lint", str(clean)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        assert main(["lint", fixture("det001_bad.py")]) == 1
        output = capsys.readouterr().out
        assert "DET001" in output
        assert "det001_bad.py" in output

    def test_json_format(self, capsys):
        assert main(["lint", fixture("det001_bad.py"),
                     "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["summary"]["finding_count"] > 0

    def test_select(self, capsys):
        assert main(["lint", fixture("det001_bad.py"),
                     "--select", "SEC001"]) == 0

    def test_unknown_rule_exit_two(self, capsys):
        assert main(["lint", fixture("det001_bad.py"),
                     "--select", "NOPE999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exit_two(self, capsys):
        assert main(["lint", "does/not/exist"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        output = capsys.readouterr().out
        for rule_id in ("SEC001", "SEC003", "DET001", "DET002"):
            assert rule_id in output
