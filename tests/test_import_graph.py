"""The import graph follows the call graph.

Package ``__init__`` files hold no re-exports and the top-level ``repro``
names load lazily, so a process imports only what it runs: a ``simulate``
or ``serve-bench`` process never loads numpy (used only by the Fig 13a
random walk), the audit, the fault layer, the linter or the shard tier.
The DRAM timing model sits below every layer that drives it.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap

import repro

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

#: Packages that drive the DRAM model and so may not be imported by it.
ABOVE_DRAM = ("repro.fastpath", "repro.sim", "repro.core", "repro.serve",
              "repro.control")

#: Modules the simulator, the single server and the CLI must not load.
UNUSED = ("numpy", "repro.obs.audit", "repro.faults", "repro.lint",
          "repro.serve.shard")


def test_runtime_entry_points_skip_unused_modules():
    script = textwrap.dedent("""
        import json
        import sys

        import repro.cli
        import repro.serve.bench
        import repro.sim.system

        print(json.dumps(sorted(sys.modules)))
    """)
    env = dict(os.environ, PYTHONPATH=SRC)
    completed = subprocess.run([sys.executable, "-c", script],
                               capture_output=True, text=True, env=env,
                               timeout=60)
    assert completed.returncode == 0, completed.stderr
    loaded = set(json.loads(completed.stdout))
    assert "repro.sim.system" in loaded
    assert [name for name in UNUSED if name in loaded] == []


def test_every_top_level_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    from repro import PathOram, SplitProtocol, run_simulation

    assert PathOram.__module__ == "repro.oram.path_oram"
    assert SplitProtocol.__module__ == "repro.core.split"
    assert run_simulation.__module__ == "repro.sim.system"


def test_dram_imports_nothing_above_it():
    dram = os.path.join(SRC, "repro", "dram")
    offending = []
    for filename in sorted(os.listdir(dram)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(dram, filename), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            else:
                continue
            offending.extend(
                f"{filename}: {name}" for name in names
                if any(name == package or name.startswith(package + ".")
                       for package in ABOVE_DRAM))
    assert offending == []
