"""Tests for reprolint v2: the interprocedural engine and the new
runner modes (SARIF, baseline, parallel jobs, result cache, LINT00x).

The differential fixtures under ``tests/fixtures/lint/interproc/``
each isolate one flow a per-function rule cannot see; the
clean fixtures prove the declassifiers hold the false-positive line.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.lint import (apply_baseline, finding_key, lint_paths,
                        load_baseline, render_baseline, render_sarif,
                        to_sarif)
from repro.lint.callgraph import build_project
from repro.lint.dataflow import SECRET, analyze

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "lint")


def fixture(*parts):
    return os.path.join(FIXTURES, *parts)


def rules_hit(result):
    return sorted({finding.rule_id for finding in result.findings})


def project_of(*named_sources):
    return build_project([(path, source, ast.parse(source))
                          for path, source in named_sources])


class TestCallGraph:
    def test_bare_name_resolves_same_module_first(self):
        project = project_of(
            ("core/a.py", "def helper(x):\n    return x\n"
                          "def caller(y):\n    return helper(y)\n"),
            ("core/b.py", "def helper(z):\n    return z\n"))
        info = project.functions["core/a.py::caller"]
        call = info.node.body[0].value
        resolved = project.resolve_call(call, info)
        assert [callee.qualname for callee in resolved] == \
            ["core/a.py::helper"]

    def test_self_method_resolves_within_class(self):
        project = project_of(
            ("core/c.py",
             "class Box:\n"
             "    def inner(self, v):\n"
             "        return v\n"
             "    def outer(self, v):\n"
             "        return self.inner(v)\n"))
        info = project.functions["core/c.py::Box.outer"]
        call = info.node.body[0].value
        assert [callee.qualname
                for callee in project.resolve_call(call, info)] == \
            ["core/c.py::Box.inner"]

    def test_attr_type_inferred_from_init(self):
        project = project_of(
            ("core/d.py",
             "class Engine:\n"
             "    def spin(self, v):\n"
             "        return v\n"
             "class Car:\n"
             "    def __init__(self):\n"
             "        self.engine = Engine()\n"
             "    def drive(self, v):\n"
             "        return self.engine.spin(v)\n"))
        info = project.functions["core/d.py::Car.drive"]
        call = info.node.body[0].value
        assert [callee.qualname
                for callee in project.resolve_call(call, info)] == \
            ["core/d.py::Engine.spin"]

    def test_ubiquitous_method_names_never_resolve_by_name(self):
        # ``store.get(...)`` must not resolve to an unrelated class's
        # ``get`` just because the project happens to define one.
        project = project_of(
            ("core/e.py",
             "class Cache:\n"
             "    def get(self, key):\n"
             "        if key:\n"
             "            return 1\n"
             "        return 0\n"
             "def fetch(store, key):\n"
             "    return store.get(key)\n"))
        info = project.functions["core/e.py::fetch"]
        call = info.node.body[0].value
        assert project.resolve_call(call, info) == []

    def test_distinctive_method_name_resolves_by_name(self):
        project = project_of(
            ("core/f.py",
             "class Geometry:\n"
             "    def deepest_common(self, a, b):\n"
             "        return a ^ b\n"
             "def use(geometry, a, b):\n"
             "    return geometry.deepest_common(a, b)\n"))
        info = project.functions["core/f.py::use"]
        call = info.node.body[0].value
        assert [callee.qualname
                for callee in project.resolve_call(call, info)] == \
            ["core/f.py::Geometry.deepest_common"]


class TestDataflowEngine:
    def test_return_summary_carries_parameter_tokens(self):
        project = project_of(("core/g.py",
                              "def ident(value):\n    return value\n"))
        taint = analyze(project)
        summary = taint.summaries["core/g.py::ident"]
        assert "P:value" in summary.return_deps

    def test_decrypt_is_a_secret_source(self):
        project = project_of(
            ("core/h.py",
             "def open_block(session, frame):\n"
             "    data = session.decrypt_block(frame)\n"
             "    if data:\n"
             "        return 1\n"
             "    return 0\n"))
        taint = analyze(project)
        assert any(flow.line == 3 for flow in taint.flows)

    def test_fresh_rng_declassifies_vocabulary_targets(self):
        project = project_of(
            ("core/i.py",
             "def remap(rng, n_leaves):\n"
             "    leaf = rng.random_leaf(n_leaves)\n"
             "    if leaf == 0:\n"
             "        return 1\n"
             "    return 0\n"))
        taint = analyze(project)
        assert taint.flows == []

    def test_structural_counts_are_not_secret(self):
        project = project_of(
            ("core/j.py",
             "def owner_of(leaf_count, group):\n"
             "    if leaf_count > 4:\n"
             "        return group\n"
             "    return 0\n"))
        taint = analyze(project)
        assert taint.flows == []

    def test_secret_attribute_threads_between_methods(self):
        result = lint_paths([fixture("interproc", "core", "attr_flow.py")])
        assert rules_hit(result) == ["SEC003"]
        assert [finding.line for finding in result.findings] == [17]


class TestSec003Fixtures:
    def test_lifted_and_in_place_flow_in_one_module(self):
        result = lint_paths([fixture("interproc", "core",
                                     "lifted_call.py")])
        assert rules_hit(result) == ["SEC003"]
        lines = sorted(finding.line for finding in result.findings)
        assert lines == [9, 15]
        lifted = [finding for finding in result.findings
                  if finding.line == 15]
        assert "route_for()" in lifted[0].message
        assert "lifted_call.py:9" in lifted[0].message

    def test_cross_module_flow(self):
        result = lint_paths([fixture("interproc")])
        by_path = {}
        for finding in result.findings:
            by_path.setdefault(os.path.basename(finding.path),
                               []).append(finding)
        # lifted at the caller, in place at the callee
        assert [f.line for f in by_path["cross_module_caller.py"]] == [8]
        assert [f.line for f in by_path["cross_module_sink.py"]] == [11]

    def test_annotation_source(self):
        result = lint_paths([fixture("interproc", "core",
                                     "annotation_source.py")])
        assert rules_hit(result) == ["SEC003"]
        assert [finding.line for finding in result.findings] == [16]

    def test_ternary_and_loop_bound(self):
        result = lint_paths([fixture("interproc", "core",
                                     "ternary_and_bound.py")])
        kinds = sorted(finding.message.split(" depends")[0]
                       for finding in result.findings)
        assert kinds == ["conditional expression", "loop bound"]

    def test_clean_fixtures_have_zero_findings(self):
        for name in ("declassified_ok.py", "chain_ok.py"):
            result = lint_paths([fixture("interproc", "core", name)])
            assert result.findings == [], name


class TestSec004Fixtures:
    def test_secret_index_and_membership_probe(self):
        result = lint_paths([fixture("interproc", "stash_index.py")])
        sec004 = [finding for finding in result.findings
                  if finding.rule_id == "SEC004"]
        assert len(sec004) == 2
        messages = " ".join(finding.message for finding in sec004)
        assert "subscript index" in messages
        assert "membership probe" in messages

    def test_oblivious_scan_is_clean(self):
        result = lint_paths([fixture("interproc", "stash_scan_ok.py")])
        assert result.findings == []


class TestDet003Fixtures:
    def test_worker_global_mutation_and_order_dependent_fold(self):
        result = lint_paths([fixture("parallel", "det003_bad.py")])
        det003 = [finding for finding in result.findings
                  if finding.rule_id == "DET003"]
        messages = " ".join(finding.message for finding in det003)
        assert "_SCRATCH" in messages
        assert "completion order" in messages

    def test_clean_pool_usage(self):
        result = lint_paths([fixture("parallel", "det003_ok.py")])
        assert result.findings == []


class TestLint000:
    def test_syntax_error_fixture_yields_structured_finding(self):
        result = lint_paths([fixture("lint000_invalid.py")])
        assert rules_hit(result) == ["LINT000"]
        finding = result.findings[0]
        assert finding.line == 3
        assert "syntax error" in finding.message
        assert result.exit_code() == 2

    def test_unreadable_file_yields_structured_finding(self, tmp_path):
        target = tmp_path / "core" / "locked.py"
        target.parent.mkdir()
        target.write_text("x = 1\n")
        target.chmod(0)
        if os.access(str(target), os.R_OK):      # running as root
            pytest.skip("cannot make file unreadable on this host")
        result = lint_paths([str(target)])
        assert rules_hit(result) == ["LINT000"]
        assert result.exit_code() == 2

    def test_lint000_is_not_suppressible(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("# reprolint: disable-file=all\ndef f(:\n")
        result = lint_paths([str(broken)])
        assert rules_hit(result) == ["LINT000"]


class TestLint001:
    def test_unused_directive_reported(self, tmp_path):
        target = tmp_path / "quiet.py"
        target.write_text("x = 1  # reprolint: disable=DET001 -- stale\n")
        result = lint_paths([str(target)],
                            warn_unused_suppressions=True)
        assert rules_hit(result) == ["LINT001"]
        assert "DET001" in result.findings[0].message

    def test_used_directive_not_reported(self, tmp_path):
        target = tmp_path / "busy.py"
        target.write_text("import time\n"
                          "NOW = time.time()  "
                          "# reprolint: disable=DET001 -- justified\n")
        result = lint_paths([str(target)],
                            warn_unused_suppressions=True)
        assert result.findings == []
        assert result.suppressed_count == 1

    def test_off_by_default(self, tmp_path):
        target = tmp_path / "quiet.py"
        target.write_text("x = 1  # reprolint: disable=DET001 -- stale\n")
        assert lint_paths([str(target)]).findings == []

    def test_unknown_rule_token_is_not_judged(self, tmp_path):
        # A token naming no registered rule (the deleted SEC002) belongs
        # to no rule that ran, so LINT001 cannot judge it either way.
        target = tmp_path / "retired.py"
        target.write_text("x = 1  # reprolint: disable=SEC002 -- stale\n")
        result = lint_paths([str(target)],
                            warn_unused_suppressions=True)
        assert rules_hit(result) == []


class TestBaseline:
    def test_round_trip(self):
        result = lint_paths([fixture("interproc", "core",
                                     "lifted_call.py")])
        assert result.findings
        accepted = load_baseline(render_baseline(result))
        assert accepted == {finding_key(finding)
                            for finding in result.findings}
        apply_baseline(result, accepted)
        assert result.findings == []
        assert len(result.baselined) == 2
        assert result.exit_code() == 0

    def test_baseline_is_line_independent(self):
        result = lint_paths([fixture("interproc", "core",
                                     "lifted_call.py")])
        assert all(str(finding.line) not in finding_key(finding).split("|")
                   for finding in result.findings)

    def test_new_findings_stay_audible(self):
        result = lint_paths([fixture("interproc", "core",
                                     "lifted_call.py")])
        apply_baseline(result, set())
        assert len(result.findings) == 2
        assert result.exit_code() == 1

    def test_malformed_baseline_raises(self):
        with pytest.raises(ValueError):
            load_baseline("not json at all")
        with pytest.raises(ValueError):
            load_baseline(json.dumps({"findings": []}))  # no version

    def test_cli_write_then_apply(self, tmp_path, capsys):
        baseline = tmp_path / "lint-baseline.json"
        assert main(["lint", fixture("interproc", "core",
                                     "lifted_call.py"),
                     "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert main(["lint", fixture("interproc", "core",
                                     "lifted_call.py"),
                     "--baseline", str(baseline)]) == 0
        assert "2 baselined" in capsys.readouterr().out


class TestSarif:
    def test_document_shape(self):
        result = lint_paths([fixture("interproc", "core",
                                     "lifted_call.py")])
        document = to_sarif(result)
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "reprolint"
        assert {rule["id"] for rule in driver["rules"]} >= \
            {"SEC003", "SEC004", "DET003", "LINT000", "LINT001"}
        assert len(run["results"]) == 2
        for entry in run["results"]:
            location = entry["locations"][0]["physicalLocation"]
            assert location["region"]["startLine"] > 0

    def test_baselined_findings_marked_unchanged(self):
        result = lint_paths([fixture("interproc", "core",
                                     "lifted_call.py")])
        apply_baseline(result,
                       {finding_key(f) for f in result.findings})
        document = to_sarif(result)
        states = [entry.get("baselineState")
                  for entry in document["runs"][0]["results"]]
        assert states == ["unchanged", "unchanged"]

    def test_render_is_valid_json(self):
        result = lint_paths([fixture("interproc", "core",
                                     "chain_ok.py")])
        document = json.loads(render_sarif(result))
        assert document["runs"][0]["results"] == []
        assert document["runs"][0]["invocations"][0][
            "executionSuccessful"] is True


class TestParallelRunner:
    def test_jobs_output_identical_to_serial(self):
        serial = lint_paths([FIXTURES], jobs=1)
        parallel = lint_paths([FIXTURES], jobs=4)
        assert [f.render() for f in parallel.findings] == \
            [f.render() for f in serial.findings]
        assert parallel.suppressed_count == serial.suppressed_count
        assert [e.message for e in parallel.errors] == \
            [e.message for e in serial.errors]
        assert parallel.files_checked == serial.files_checked

    def test_cli_jobs_byte_identical(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(FIXTURES),
                                         "..", "..", "src")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src")
        outputs = []
        for jobs in ("1", "3"):
            process = subprocess.run(
                [sys.executable, "-m", "repro", "lint", FIXTURES,
                 "--jobs", jobs],
                capture_output=True, env=env, cwd=root)
            outputs.append(process.stdout)
        assert outputs[0] == outputs[1]

    def test_cache_round_trip(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = lint_paths([fixture("interproc", "core",
                                    "lifted_call.py")],
                           cache_dir=cache_dir)
        assert os.listdir(cache_dir)          # populated
        second = lint_paths([fixture("interproc", "core",
                                     "lifted_call.py")],
                            cache_dir=cache_dir)
        assert [f.render() for f in second.findings] == \
            [f.render() for f in first.findings]
        assert second.suppressed_count == first.suppressed_count
