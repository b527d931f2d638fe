"""Self-check: the entire ``src/`` tree must satisfy reprolint.

This is the tier-1 hook the lint subsystem exists for: every future PR
runs these assertions, so a reintroduced timing-unsafe comparison, a
stray ``time.time()``, a float leaking into cycle accounting, or a new
secret-dependent branch anywhere in the call graph fails CI the same
way a broken unit test would.  Suppressions with recorded
justifications are allowed (and counted); unexplained findings are not.

The interprocedural pass (SEC003/SEC004) replaced most of the old
per-function SEC002 directives: the precise engine proved them
unnecessary, and the survivors were re-justified and retagged.  The
caps below keep both numbers from creeping back up.
"""

import os
import re

import pytest

from repro.lint.runner import lint_paths

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")

_DIRECTIVE = re.compile(r"#\s*reprolint:\s*disable")


@pytest.fixture(scope="module")
def src_result():
    return lint_paths([SRC], warn_unused_suppressions=True)


def _directive_sites(*subdirs):
    sites = []
    for subdir in subdirs:
        for directory, _, files in os.walk(os.path.join(SRC, subdir)):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(directory, name)
                with open(path, "r", encoding="utf-8") as handle:
                    for lineno, line in enumerate(handle, start=1):
                        if _DIRECTIVE.search(line):
                            sites.append((path, lineno))
    return sites


class TestSourceTreeClean:
    def test_src_tree_has_no_findings(self, src_result):
        rendered = "\n".join(finding.render()
                             for finding in src_result.findings)
        assert src_result.findings == [], f"reprolint findings:\n{rendered}"

    def test_src_tree_has_no_file_errors(self, src_result):
        assert src_result.errors == []

    def test_whole_tree_was_actually_scanned(self, src_result):
        # Guard against the self-check silently passing because discovery
        # broke: the tree has dozens of modules, all of which must parse.
        assert src_result.files_checked >= 100

    def test_no_unused_suppressions(self, src_result):
        # The shared run has --warn-unused-suppressions on, so every
        # directive in the tree must still silence something (LINT001
        # findings would fail test_src_tree_has_no_findings too; this
        # assertion keeps the intent legible on its own).
        assert all(finding.rule_id != "LINT001"
                   for finding in src_result.findings)

    def test_obs_subsystem_is_covered(self):
        # The observability tree must lint clean on its own — and the
        # secret-flow rules must actually consider it in scope, so a
        # secret-tainted branch in an exporter is caught.
        obs = os.path.join(SRC, "obs")
        result = lint_paths([obs])
        # tracer/metrics/audit/chrome plus the performance layer
        # (ledger/timeseries/profile) must all be in scope
        assert result.files_checked >= 8
        assert result.findings == []
        names = {name for name in os.listdir(obs) if name.endswith(".py")}
        for module in ("ledger.py", "timeseries.py", "profile.py"):
            assert module in names
        from repro.lint.rules.sec003 import InterproceduralSecretFlow
        assert any("obs" in marker
                   for marker in InterproceduralSecretFlow.path_markers)

    def test_serve_shard_tier_is_covered(self):
        # The sharded serving tier ships pool-worker code, so the
        # cross-process determinism rule must have it in scope and find
        # nothing: workers re-derive everything from the picklable spec.
        serve = os.path.join(SRC, "serve")
        result = lint_paths([serve])
        assert result.files_checked >= 7
        assert result.findings == []
        names = {name for name in os.listdir(serve) if name.endswith(".py")}
        for module in ("shard.py", "router.py"):
            assert module in names
        from repro.lint.rules.det003 import CrossProcessDeterminism
        assert CrossProcessDeterminism().applies_to(
            "src/repro/serve/router.py")

    def test_suppressions_stay_bounded(self, src_result):
        # Every suppression is a recorded debt with a justification; a
        # jump in this number means someone is silencing the linter
        # instead of fixing code.  Raise deliberately, not accidentally.
        assert src_result.suppressed_count <= 10

    def test_core_and_stash_directive_sites_stay_bounded(self):
        # The interprocedural engine retired the per-function SEC002
        # directives in the protocol layers; the handful that survive
        # carry documented, re-audited justifications.
        sites = _directive_sites("core", "oram")
        assert len(sites) <= 8, sites
