"""The import graph follows the call graph.

Package ``__init__`` files hold no re-exports and the top-level ``repro``
names load lazily, so a process imports only what it runs: a ``simulate``
or ``serve-bench`` process never loads numpy (used only by the Fig 13a
random walk), the audit, the fault layer, the linter or the shard tier.
The DRAM timing model sits below every layer that drives it, and only
the one fan-out touches a process pool.
"""

import ast
import json
import os
import subprocess
import sys

import repro

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

#: Packages that drive the DRAM model and so may not be imported by it.
ABOVE_DRAM = ("repro.fastpath", "repro.sim", "repro.core", "repro.serve",
              "repro.control")

#: Packages only ``parallel/pool.py`` may import: the one fan-out consumes
#: pool results in submission order, so completion order reaches no result.
POOL_PACKAGES = ("concurrent", "multiprocessing")

#: Modules the simulator, the single server and the CLI must not load.
UNUSED = ("numpy", "repro.obs.audit", "repro.faults", "repro.lint",
          "repro.serve.shard")


def _modules_loaded_by(*entry_points):
    """Every module a fresh interpreter holds after importing these."""
    script = "".join(f"import {name}\n" for name in
                     ("json", "sys") + entry_points)
    script += "print(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=SRC)
    completed = subprocess.run([sys.executable, "-c", script],
                               capture_output=True, text=True, env=env,
                               timeout=60)
    assert completed.returncode == 0, completed.stderr
    return set(json.loads(completed.stdout))


def test_runtime_entry_points_skip_unused_modules():
    loaded = _modules_loaded_by("repro.cli", "repro.serve.bench",
                                "repro.sim.system")
    assert "repro.sim.system" in loaded
    assert [name for name in UNUSED if name in loaded] == []


def test_campaigns_skip_the_run_result_serializer():
    # A campaign stamps its own schema, so a RunResult layout change
    # cannot move a campaign report byte.
    loaded = _modules_loaded_by("repro.faults.campaign")
    assert "repro.faults.campaign" in loaded
    assert "repro.parallel.serialize" not in loaded


def test_every_top_level_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    from repro import PathOram, SplitProtocol, run_simulation

    assert PathOram.__module__ == "repro.oram.path_oram"
    assert SplitProtocol.__module__ == "repro.core.split"
    assert run_simulation.__module__ == "repro.sim.system"


def _imported_names(tree):
    """Every module an AST imports, function-local imports included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_dram_imports_nothing_above_it():
    dram = os.path.join(SRC, "repro", "dram")
    offending = []
    for filename in sorted(os.listdir(dram)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(dram, filename), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        offending.extend(
            f"{filename}: {name}" for name in _imported_names(tree)
            if any(name == package or name.startswith(package + ".")
                   for package in ABOVE_DRAM))
    assert offending == []


def test_only_the_fanout_imports_a_process_pool():
    package = os.path.join(SRC, "repro")
    offending = []
    for directory, _, filenames in sorted(os.walk(package)):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            relative = os.path.relpath(path, package).replace(os.sep, "/")
            if relative == "parallel/pool.py":
                continue
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            offending.extend(
                f"{relative}: {name}" for name in _imported_names(tree)
                if any(name == top or name.startswith(top + ".")
                       for top in POOL_PACKAGES))
    assert offending == []
