"""DET003 — cross-process determinism for the one fan-out.

Every paper figure point, serve and shard point and fault campaign runs
through :func:`repro.parallel.pool.fanout`, which promises
byte-identical output for any ``--jobs`` value.  That promise survives
exactly as long as its workers re-derive everything from their
picklable task.  A dispatch is a call whose callee is named ``fanout``;
its worker is the second positional argument or the ``worker=``
keyword.  Two process-boundary rules have a syntactic shadow this rule
checks through the call graph:

* **workers must not mutate module-global state** — a pool worker runs
  in a forked/spawned child; an assignment or mutating method call on a
  module-level container silently diverges between the serial path
  (mutation visible) and the pool path (mutation lost), the classic
  "works with --jobs 1" bug;
* **workers must not read registries other code mutates** — state
  populated in the parent after pool creation may or may not be visible
  in a child depending on start method and timing.

The worker function is resolved via :mod:`repro.lint.callgraph` and its
same-module callees are inspected too, so hiding the mutation one call
deep does not evade the rule.  The ``fanout`` call marks a dispatch
wherever it sits, so the rule has no path scope.  Completion order is
not checked here: only ``parallel/pool.py`` may import a process pool
(``tests/test_import_graph.py``), and it consumes results in submission
order.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.callgraph import FunctionInfo, Project
from repro.lint.findings import Finding
from repro.lint.registry import ProjectRule, register

_MUTATING_METHODS = frozenset({"append", "add", "update", "setdefault",
                               "pop", "popitem", "extend", "insert",
                               "remove", "discard", "clear"})


def _fanout_worker(call: ast.Call) -> Optional[ast.AST]:
    """The worker of a ``fanout(tasks, worker, ...)`` call, else ``None``."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", None)
    if name != "fanout":
        return None
    if len(call.args) > 1:
        return call.args[1]
    return next((keyword.value for keyword in call.keywords
                 if keyword.arg == "worker"), None)


def _local_bindings(function: ast.AST) -> Set[str]:
    names: Set[str] = set()
    arguments = getattr(function, "args", None)
    if arguments is not None:
        for argument in (arguments.posonlyargs + arguments.args
                         + arguments.kwonlyargs):
            names.add(argument.arg)
        if arguments.vararg:
            names.add(arguments.vararg.arg)
        if arguments.kwarg:
            names.add(arguments.kwarg.arg)
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and \
                isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, (ast.For, ast.comprehension)):
            target = node.target
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
    return names


def _global_mutations(function: ast.AST,
                      candidates: Set[str]) -> List[Tuple[str, int, int]]:
    """(name, line, col) for each mutation of a candidate global."""
    local = _local_bindings(function) - _globals_declared(function)
    hits: List[Tuple[str, int, int]] = []
    for node in ast.walk(function):
        name: Optional[str] = None
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                base = target
                while isinstance(base, ast.Subscript):
                    base = base.value
                if isinstance(base, ast.Name) and base.id in candidates \
                        and (base.id not in local
                             or isinstance(target, ast.Subscript)):
                    name = base.id
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in _MUTATING_METHODS and \
                isinstance(node.func.value, ast.Name):
            probed = node.func.value.id
            if probed in candidates and probed not in local:
                name = probed
        if name is not None:
            hits.append((name, int(getattr(node, "lineno", 1)),
                         int(getattr(node, "col_offset", 0)) + 1))
    return hits


def _global_reads(function: ast.AST, candidates: Set[str]) -> Set[str]:
    local = _local_bindings(function) - _globals_declared(function)
    reads: Set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and node.id in candidates and node.id not in local:
            reads.add(node.id)
    return reads


def _globals_declared(function: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            names.update(node.names)
    return names


@register
class CrossProcessDeterminism(ProjectRule):
    rule_id = "DET003"
    title = "cross-process nondeterminism in pool fan-out"
    rationale = ("fan-out workers must re-derive everything from their "
                 "picklable task: module-global mutation is lost or "
                 "start-method-dependent in children, which breaks "
                 "--jobs byte-identity")

    def check_project(self, analysis) -> Iterator[Finding]:
        project: Project = analysis.project
        for module in project.modules:
            if "fanout" not in module.source:
                continue
            for info in sorted((f for f in project.functions.values()
                                if f.module is module),
                               key=lambda f: f.qualname):
                for call in ast.walk(info.node):
                    if not isinstance(call, ast.Call):
                        continue
                    worker = _fanout_worker(call)
                    if worker is not None:
                        yield from self._check_worker(project, info, call,
                                                      worker)

    def _check_worker(self, project: Project, caller: FunctionInfo,
                      call: ast.Call,
                      worker_expr: ast.AST) -> Iterator[Finding]:
        probe = ast.Call(func=worker_expr, args=[], keywords=[])
        ast.copy_location(probe, call)
        dispatch_line = int(getattr(call, "lineno", 1))
        dispatch_col = int(getattr(call, "col_offset", 0)) + 1
        for worker in project.resolve_call(probe, caller):
            yield from self._check_worker_body(project, worker,
                                               dispatch_line, dispatch_col,
                                               caller)

    def _check_worker_body(self, project: Project, worker: FunctionInfo,
                           dispatch_line: int, dispatch_col: int,
                           caller: FunctionInfo) -> Iterator[Finding]:
        home = worker.module
        mutable = project.module_mutable_globals.get(home.path, set())
        everything = project.module_globals.get(home.path, set())
        # The worker plus its same-module callees (one shape of hiding).
        bodies = [worker]
        for callee in project.reachable_from(worker, max_functions=50):
            if callee.module is home and callee is not worker:
                bodies.append(callee)
        mutated_elsewhere = self._module_mutation_map(project, home,
                                                     mutable,
                                                     exclude=bodies)
        seen: Set[Tuple[str, str]] = set()
        for body in bodies:
            for name, line, _col in _global_mutations(body.node,
                                                      everything):
                key = ("mutates", name)
                if key in seen:
                    continue
                seen.add(key)
                yield Finding(
                    rule_id=self.rule_id, path=caller.path,
                    line=dispatch_line, column=dispatch_col,
                    message=(f"pool worker {worker.name}() mutates "
                             f"module-global {name!r} (at "
                             f"{body.path}:{line}); the mutation is "
                             f"lost in child processes and diverges "
                             f"from the serial path"),
                    severity=self.severity)
            for name in sorted(_global_reads(body.node,
                                             set(mutated_elsewhere))):
                key = ("reads", name)
                if key in seen:
                    continue
                seen.add(key)
                where = mutated_elsewhere[name]
                yield Finding(
                    rule_id=self.rule_id, path=caller.path,
                    line=dispatch_line, column=dispatch_col,
                    message=(f"pool worker {worker.name}() reads "
                             f"module-global {name!r}, which "
                             f"{where} mutates; child visibility "
                             f"depends on pool start method and "
                             f"timing"),
                    severity=self.severity)

    @staticmethod
    def _module_mutation_map(project: Project, module, mutable: Set[str],
                             exclude: List[FunctionInfo]
                             ) -> Dict[str, str]:
        excluded = {info.qualname for info in exclude}
        mutators: Dict[str, str] = {}
        for info in sorted((f for f in project.functions.values()
                            if f.module is module),
                           key=lambda f: f.qualname):
            if info.qualname in excluded:
                continue
            for name, _line, _col in _global_mutations(info.node, mutable):
                mutators.setdefault(name, f"{info.name}()")
        return mutators
