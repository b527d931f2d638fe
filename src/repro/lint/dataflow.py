"""Interprocedural taint dataflow over per-function summaries.

Two passes, both fixed-point:

* **Pass A (summaries).**  Every function is analyzed with its
  parameters held abstract: parameter ``p`` carries the token ``P:p``,
  and concrete secrets (vocabulary identifiers, ``# reprolint: secret``
  annotations, ``decrypt*`` results) carry ``SECRET``.  The pass yields
  a :class:`FunctionSummary` — which tokens the return value may carry,
  and which parameters reach a *sink* (branch condition, loop bound,
  ternary with real work in an arm, subscript index, membership probe)
  inside the function.  Summaries are iterated to a global fixpoint so
  taint crosses any number of call hops.  A worklist drives it: only
  the callers of a changed summary, and the methods of a class whose
  secret-attribute set grew, are summarized again.
* **Pass B (reporting).**  Every function is re-analyzed with concrete
  seeding (vocabulary parameters are SECRET).  A sink whose condition
  carries ``SECRET`` becomes an *in-place* flow at the sink; a call
  whose argument carries ``SECRET`` into a callee parameter that the
  callee's summary says reaches a sink becomes a *lifted* flow at the
  call site — the interprocedural finding no per-function analysis
  could produce.

Precision features (each one retires a class of suppressions the local
analysis needed):

* fresh-RNG declassification — ``rng.random_leaf(...)``/``bernoulli``
  and friends return *fresh public randomness*; assigning one to a
  vocabulary-named target does **not** taint it;
* ``len()`` is structural — the length of a container is treated as
  sanitized (occupancy side channels are SEC004/DET territory, handled
  where the container itself is indexed);
* ``encrypt*`` declassifies (ciphertext is public by definition) and
  ``decrypt*`` is a hard SECRET source;
* subscripts propagate the *container's* taint to the value read, never
  the index's (a secret index is an addressing leak — SEC004's sink —
  not a data flow);
* ``x is None`` presence tests and raise-only guards (``if bad:
  raise``) are exempt — they check protocol integrity, not secret
  content, and the failure path aborts the run rather than shaping it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (Dict, FrozenSet, Iterator, List, Optional, Sequence,
                    Set, Tuple)

from repro.lint.callgraph import FunctionInfo, Project
from repro.lint.rules.common import identifier_segments
from repro.lint.suppressions import SuppressionIndex, parse_suppressions

SECRET = "SECRET"

#: Sink kinds, grouped by the rule family that reports them.
BRANCH_KINDS = frozenset({"branch condition", "loop bound",
                          "conditional expression"})
ADDRESS_KINDS = frozenset({"subscript index", "membership probe"})

_SECRET_VOCABULARY = frozenset({
    "leaf", "leaves", "plaintext", "plaintexts",
    "secret", "secrets",
})

#: RNG methods whose result is fresh public randomness regardless of
#: their arguments (the arguments are bounds/probabilities, and the
#: draw itself is the protocol's sanctioned remapping step).
_FRESH_RNG = frozenset({
    "random_leaf", "randint", "randrange", "random", "bernoulli",
    "expovariate", "gauss", "random_bytes", "zipf_index",
})

#: Pure builtins whose presence in a ternary arm does not constitute
#: observable work — ``a if c else None`` and ``bytes(n) if d else x``
#: are data selection, not control flow with a timing shape.
_PURE_BUILTINS = frozenset({
    "bytes", "bytearray", "len", "int", "bool", "float", "str",
    "min", "max", "abs", "tuple", "frozenset",
})

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Suppression tokens that silence a sink at its definition site, per
#: family.
_FAMILY_TOKENS = {
    "branch": ("SEC003",),
    "address": ("SEC004",),
}

#: Segments that mark an identifier as a *structural count*, not a
#: secret: ``n_leaves``, ``_global_leaf_count``, ``leaf_bits`` are tree
#: capacities — public configuration — even though "leaf" is vocabulary.
_STRUCTURAL_SEGMENTS = frozenset({
    "n", "num", "count", "total", "max", "min", "per", "capacity",
    "limit", "bits", "width", "size", "space",
})

Deps = FrozenSet[str]
_EMPTY: Deps = frozenset()
_SECRET_ONLY: Deps = frozenset({SECRET})


def _vocab(name: str) -> bool:
    segments = identifier_segments(name)
    if not segments & _SECRET_VOCABULARY:
        return False
    return not (segments & _STRUCTURAL_SEGMENTS)


def _param_token(name: str) -> str:
    return "P:" + name


@dataclass(frozen=True)
class SinkRecord:
    """One sink inside a function, as seen by callers."""

    kind: str
    lineno: int
    column: int
    params: FrozenSet[str]     # bare parameter names reaching the sink
    suppressed: bool           # silenced at the definition site


@dataclass(frozen=True)
class FunctionSummary:
    """What a caller needs to know about a function."""

    return_deps: Deps
    sinks: Tuple[SinkRecord, ...]


@dataclass(frozen=True)
class TaintFlow:
    """One reportable secret flow (in-place at a sink, or lifted to a
    call site whose argument reaches a sink in the callee)."""

    kind: str                  # one of BRANCH_KINDS | ADDRESS_KINDS
    path: str                  # file the finding is reported in
    line: int
    column: int
    message: str
    origin_path: str           # file containing the sink itself

    @property
    def family(self) -> str:
        return "branch" if self.kind in BRANCH_KINDS else "address"


class _FunctionAnalysis:
    """One function's abstract interpretation (shared by both passes)."""

    def __init__(self, engine: "ProgramTaint", info: FunctionInfo,
                 concrete: bool):
        self.engine = engine
        self.info = info
        self.concrete = concrete
        self._secret_attrs = engine.secret_attrs_for(info)
        self.env: Dict[str, Deps] = {}
        arguments = getattr(info.node, "args", None)
        params = info.params if arguments is not None else []
        for param in params:
            deps = {_param_token(param)}
            if concrete and _vocab(param):
                deps.add(SECRET)
            self.env[param] = frozenset(deps)
        self._annotated = engine.annotated_lines(info.module.path)

    # -- statement-order iteration, stopping at nested defs -----------

    def statements(self) -> List[ast.AST]:
        return self.engine.shallow(self.info.node)

    # -- environment fixpoint -----------------------------------------

    def run(self) -> None:
        for _ in range(10):
            if not self._pass_once():
                return

    def _pass_once(self) -> bool:
        changed = False
        for node in self.statements():
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                changed |= self._transfer_assign(node)
            elif isinstance(node, ast.For):
                changed |= self._bind(node.target,
                                      self.expr_deps(node.iter),
                                      strong=False)
            elif isinstance(node, ast.withitem) and \
                    node.optional_vars is not None:
                changed |= self._bind(node.optional_vars,
                                      self.expr_deps(node.context_expr),
                                      strong=False)
            elif isinstance(node, ast.NamedExpr):
                changed |= self._bind(node.target,
                                      self.expr_deps(node.value),
                                      strong=False)
        return changed

    def _transfer_assign(self, node: ast.AST) -> bool:
        value = getattr(node, "value", None)
        if value is None:
            return False
        deps = self.expr_deps(value)
        if getattr(node, "lineno", 0) in self._annotated:
            deps = deps | _SECRET_ONLY
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        strong = (isinstance(node, ast.Assign) and len(targets) == 1
                  and isinstance(targets[0], ast.Name))
        declassified = _is_declassifier(value)
        changed = False
        for target in targets:
            changed |= self._bind(target, deps, strong=strong,
                                  declassified=declassified)
        return changed

    def _bind(self, target: ast.AST, deps: Deps, strong: bool,
              declassified: bool = False) -> bool:
        changed = False
        for name in _binding_names_of(target):
            # A vocabulary-named target is a concrete secret *unless*
            # the value is explicitly declassified (fresh randomness,
            # ciphertext, a structural length, a constant).
            new = deps
            if _vocab(name) and not declassified:
                new = new | _SECRET_ONLY
            if not strong:
                new = new | self.env.get(name, _EMPTY)
            if self.env.get(name) != new:
                self.env[name] = new
                changed = True
        return changed

    # -- expression evaluation -----------------------------------------

    def expr_deps(self, node: ast.AST) -> Deps:
        if isinstance(node, ast.Constant):
            return _EMPTY
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            return _SECRET_ONLY if _vocab(node.id) else _EMPTY
        if isinstance(node, ast.Attribute):
            deps = self.env.get(node.attr, _EMPTY)
            if _vocab(node.attr) or node.attr in self._secret_attrs:
                deps = deps | _SECRET_ONLY
            return deps
        if isinstance(node, ast.Call):
            return self._call_deps(node)
        if isinstance(node, ast.Subscript):
            # Index taint does NOT flow into the value read: a secret
            # index is an addressing sink (SEC004), not a data flow.
            return self.expr_deps(node.value)
        if isinstance(node, ast.NamedExpr):
            return self.expr_deps(node.value)
        if isinstance(node, ast.Lambda):
            return _EMPTY
        if isinstance(node, _FUNCTION_NODES):
            return _EMPTY
        deps: Deps = _EMPTY
        for child in ast.iter_child_nodes(node):
            deps = deps | self.expr_deps(child)
        return deps

    def _call_deps(self, call: ast.Call) -> Deps:
        name = _callee_name(call)
        if name is not None:
            if name == "len" or "encrypt" in name:
                return _EMPTY
            if name in _FRESH_RNG:
                return _EMPTY
            if "decrypt" in name:
                return _SECRET_ONLY
        callees = self.engine.project.resolve_call(call, self.info)
        if callees:
            deps: Deps = _EMPTY
            for callee in callees:
                summary = self.engine.summaries.get(callee.qualname)
                if summary is None:
                    continue
                deps = deps | self._substitute(summary.return_deps,
                                               call, callee)
            return deps
        # Unresolved: the result may carry anything the receiver or the
        # arguments carry, plus SECRET when the method name itself says
        # so (``stash.get_leaf(...)``).
        deps = _EMPTY
        if isinstance(call.func, ast.Attribute):
            deps = deps | self.expr_deps(call.func.value)
        if name is not None and _vocab(name):
            deps = deps | _SECRET_ONLY
        for argument in call.args:
            deps = deps | self.expr_deps(argument)
        for keyword in call.keywords:
            deps = deps | self.expr_deps(keyword.value)
        return deps

    def _substitute(self, deps: Deps, call: ast.Call,
                    callee: FunctionInfo) -> Deps:
        """Rewrite a callee summary into caller terms."""
        if not deps:
            return _EMPTY
        mapping = self.argument_map(call, callee)
        out = set()
        for token in deps:
            if token == SECRET:
                out.add(SECRET)
            elif token.startswith("P:"):
                argument = mapping.get(token[2:])
                if argument is not None:
                    out |= self.expr_deps(argument)
        return frozenset(out)

    def argument_map(self, call: ast.Call,
                     callee: FunctionInfo) -> Dict[str, ast.AST]:
        """Callee parameter name -> caller argument expression."""
        params = callee.params
        mapping: Dict[str, ast.AST] = {}
        offset = 0
        if (isinstance(call.func, ast.Attribute)
                and callee.class_name is not None
                and params and params[0] in ("self", "cls")):
            mapping[params[0]] = call.func.value
            offset = 1
        for index, argument in enumerate(call.args):
            if isinstance(argument, ast.Starred):
                break
            position = offset + index
            if position < len(params):
                mapping[params[position]] = argument
        for keyword in call.keywords:
            if keyword.arg is not None and keyword.arg in params:
                mapping[keyword.arg] = keyword.value
        return mapping

    # -- sink enumeration ----------------------------------------------

    def sinks(self) -> Iterator[Tuple[str, ast.AST, ast.AST]]:
        """Yield ``(kind, sink node, guarded expression)`` triples."""
        for node in self.statements():
            if isinstance(node, (ast.If, ast.While)):
                if _is_none_presence_test(node.test):
                    continue
                if isinstance(node, ast.If) and _is_raise_only_guard(node):
                    continue
                yield "branch condition", node, node.test
            elif isinstance(node, ast.IfExp):
                if _is_none_presence_test(node.test):
                    continue
                if _arms_do_real_work(node):
                    yield "conditional expression", node, node.test
            elif isinstance(node, ast.For):
                if _is_computed_bound(node.iter):
                    yield "loop bound", node, node.iter
            elif isinstance(node, ast.Subscript):
                yield "subscript index", node, node.slice
            elif isinstance(node, ast.Compare):
                if (len(node.ops) == 1
                        and isinstance(node.ops[0], (ast.In, ast.NotIn))):
                    yield "membership probe", node, node.left

    def culprit(self, expression: ast.AST) -> str:
        """A name carrying SECRET in the expression (for the message)."""
        names = []
        for child in ast.walk(expression):
            name: Optional[str] = None
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            if name is None:
                continue
            bound = self.env.get(name)
            if (bound is not None and SECRET in bound) or \
                    (bound is None and (_vocab(name)
                                        or name in self._secret_attrs)):
                names.append(name)
        return sorted(names)[0] if names else "<expression>"


class ProgramTaint:
    """Whole-program taint analysis over a :class:`Project`.

    ``summaries`` maps function qualnames to :class:`FunctionSummary`;
    ``flows`` holds every reportable flow, sorted.  Rules filter flows
    by kind family and path scope.
    """

    def __init__(self, project: Project,
                 suppressions: Optional[Dict[str, SuppressionIndex]] = None):
        self.project = project
        self.summaries: Dict[str, FunctionSummary] = {}
        self._suppressions: Dict[str, SuppressionIndex] = \
            dict(suppressions) if suppressions else {}
        self._annotated: Dict[str, FrozenSet[int]] = {}
        # (module path, class name) -> attribute names observed holding
        # a concrete secret in *some* method; reads in every method of
        # that class then carry SECRET (the "decrypted payload threaded
        # through an object attribute" case).
        self._secret_attrs: Dict[Tuple[str, str], set] = {}
        # def node -> its body's nodes in statement order, not descending
        # into nested defs; both passes walk each body several times.
        self._shallow: Dict[ast.AST, List[ast.AST]] = {}
        # Pass A's worklist, and (module path, class name) -> method
        # qualnames, the functions a new secret attribute makes dirty.
        self._dirty: Set[str] = set()
        self._methods: Dict[Tuple[str, str], Set[str]] = {}
        self._compute_summaries()
        self.flows: List[TaintFlow] = sorted(
            self._report(),
            key=lambda flow: (flow.path, flow.line, flow.column,
                              flow.kind, flow.message))

    # -- shared per-module caches --------------------------------------

    def shallow(self, node: ast.AST) -> List[ast.AST]:
        """Every node under a def's body, stopping at nested defs."""
        nodes = self._shallow.get(node)
        if nodes is None:
            nodes = list(_iter_shallow(getattr(node, "body", [])))
            self._shallow[node] = nodes
        return nodes

    def suppression_index(self, path: str) -> SuppressionIndex:
        if path not in self._suppressions:
            module = next(m for m in self.project.modules if m.path == path)
            self._suppressions[path] = parse_suppressions(module.source)
        return self._suppressions[path]

    def annotated_lines(self, path: str) -> FrozenSet[int]:
        if path not in self._annotated:
            module = next(m for m in self.project.modules if m.path == path)
            lines = set()
            for lineno, line in enumerate(module.lines, start=1):
                if "# reprolint: secret" in line or \
                        "#reprolint: secret" in line:
                    lines.add(lineno)
            self._annotated[path] = frozenset(lines)
        return self._annotated[path]

    def secret_attrs_for(self, info: FunctionInfo) -> FrozenSet[str]:
        if info.class_name is None:
            return frozenset()
        key = (info.module.path, info.class_name)
        return frozenset(self._secret_attrs.get(key, ()))

    def _record_secret_attr(self, info: FunctionInfo, attr: str) -> None:
        key = (info.module.path, str(info.class_name))
        bucket = self._secret_attrs.setdefault(key, set())
        if attr not in bucket:
            bucket.add(attr)
            self._dirty |= self._methods.get(key, set())

    def _sink_suppressed(self, path: str, kind: str, lineno: int) -> bool:
        index = self.suppression_index(path)
        family = "branch" if kind in BRANCH_KINDS else "address"
        return any(index.is_suppressed(token, lineno)
                   for token in _FAMILY_TOKENS[family])

    # -- Pass A ---------------------------------------------------------

    def _compute_summaries(self) -> None:
        functions = self.project.functions
        callers: Dict[str, Set[str]] = {}
        for qualname, info in functions.items():
            if info.class_name is not None:
                self._methods.setdefault((info.path, info.class_name),
                                         set()).add(qualname)
            for node in self.shallow(info.node):
                if isinstance(node, ast.Call):
                    for callee in self.project.resolve_call(node, info):
                        callers.setdefault(callee.qualname,
                                           set()).add(qualname)
        self._dirty = set(functions)
        for _ in range(20):
            if not self._dirty:
                return
            batch, self._dirty = sorted(self._dirty), set()
            for qualname in batch:
                summary = self._summarize(functions[qualname])
                if summary != self.summaries.get(qualname):
                    self.summaries[qualname] = summary
                    self._dirty |= callers.get(qualname, set())

    def _summarize(self, info: FunctionInfo) -> FunctionSummary:
        analysis = _FunctionAnalysis(self, info, concrete=False)
        analysis.run()
        if info.class_name is not None:
            self._collect_secret_attrs(info, analysis)
        return_deps: Deps = _EMPTY
        for node in self.shallow(info.node):
            if isinstance(node, ast.Return) and node.value is not None:
                return_deps = return_deps | analysis.expr_deps(node.value)
        sinks: List[SinkRecord] = []
        for kind, node, guarded in analysis.sinks():
            deps = analysis.expr_deps(guarded)
            params = frozenset(token[2:] for token in deps
                               if token.startswith("P:"))
            if not params:
                continue
            lineno = int(getattr(node, "lineno", 1))
            sinks.append(SinkRecord(
                kind=kind, lineno=lineno,
                column=int(getattr(node, "col_offset", 0)) + 1,
                params=params,
                suppressed=self._sink_suppressed(info.path, kind, lineno)))
        return FunctionSummary(return_deps=return_deps,
                               sinks=tuple(sinks))

    def _collect_secret_attrs(self, info: FunctionInfo,
                              analysis: _FunctionAnalysis) -> None:
        """Record ``self.<attr> = <concretely secret>`` assignments."""
        for node in self.shallow(info.node):
            if not isinstance(node, (ast.Assign, ast.AnnAssign,
                                     ast.AugAssign)):
                continue
            value = getattr(node, "value", None)
            if value is None:
                continue
            deps = analysis.expr_deps(value)
            if getattr(node, "lineno", 0) in analysis._annotated:
                deps = deps | _SECRET_ONLY
            if SECRET not in deps:
                continue
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    self._record_secret_attr(info, target.attr)

    # -- Pass B ---------------------------------------------------------

    def _report(self) -> Iterator[TaintFlow]:
        for qualname in sorted(self.project.functions):
            info = self.project.functions[qualname]
            yield from self._report_function(info)
        # Nested defs are not in the function table; analyze them too.
        for module in self.project.modules:
            for info in _nested_functions(self.project, module):
                yield from self._report_function(info)

    def _report_function(self, info: FunctionInfo) -> Iterator[TaintFlow]:
        analysis = _FunctionAnalysis(self, info, concrete=True)
        analysis.run()
        yield from self._in_place_flows(info, analysis)
        yield from self._lifted_flows(info, analysis)

    def _in_place_flows(self, info: FunctionInfo,
                        analysis: _FunctionAnalysis) -> Iterator[TaintFlow]:
        for kind, node, guarded in analysis.sinks():
            deps = analysis.expr_deps(guarded)
            if SECRET not in deps:
                continue
            culprit = analysis.culprit(guarded)
            if kind in BRANCH_KINDS:
                message = (f"{kind} depends on secret-tainted value "
                           f"{culprit!r}; protocol timing must not be a "
                           f"function of secret state")
            else:
                message = (f"{kind} uses secret-tainted value "
                           f"{culprit!r}; memory addressing must be "
                           f"independent of secret state")
            yield TaintFlow(
                kind=kind, path=info.path,
                line=int(getattr(node, "lineno", 1)),
                column=int(getattr(node, "col_offset", 0)) + 1,
                message=message, origin_path=info.path)

    def _lifted_flows(self, info: FunctionInfo,
                      analysis: _FunctionAnalysis) -> Iterator[TaintFlow]:
        for call in self.shallow(info.node):
            if not isinstance(call, ast.Call):
                continue
            callees = self.project.resolve_call(call, info)
            reported_families = set()
            for callee in callees:
                summary = self.summaries.get(callee.qualname)
                if summary is None or not summary.sinks:
                    continue
                mapping = analysis.argument_map(call, callee)
                secret_params = sorted(
                    param for param, argument in sorted(mapping.items())
                    if SECRET in analysis.expr_deps(argument))
                if not secret_params:
                    continue
                for sink in summary.sinks:
                    if sink.suppressed:
                        continue
                    hit = sorted(sink.params & set(secret_params))
                    if not hit:
                        continue
                    family = ("branch" if sink.kind in BRANCH_KINDS
                              else "address")
                    if family in reported_families:
                        continue
                    reported_families.add(family)
                    yield TaintFlow(
                        kind=sink.kind, path=info.path,
                        line=int(getattr(call, "lineno", 1)),
                        column=int(getattr(call, "col_offset", 0)) + 1,
                        message=(f"secret-tainted argument for parameter "
                                 f"{hit[0]!r} of {callee.name}() reaches a "
                                 f"{sink.kind} at "
                                 f"{callee.path}:{sink.lineno}; the call's "
                                 f"observable behavior depends on secret "
                                 f"state"),
                        origin_path=callee.path)


def analyze(project: Project,
            suppressions: Optional[Dict[str, SuppressionIndex]] = None
            ) -> ProgramTaint:
    """Run the whole-program taint analysis (both passes).

    ``suppressions`` lets the runner share its per-file indexes so
    definition-site sink suppressions are recorded as *used* (the
    ``--warn-unused-suppressions`` bookkeeping).
    """
    return ProgramTaint(project, suppressions=suppressions)


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------

def _iter_shallow(body: Sequence[ast.AST]) -> Iterator[ast.AST]:
    """Every node under ``body`` without descending into nested defs."""
    stack: List[ast.AST] = list(reversed(list(body)))
    while stack:
        node = stack.pop()
        if isinstance(node, _FUNCTION_NODES + (ast.ClassDef, ast.Lambda)):
            continue
        yield node
        children = list(ast.iter_child_nodes(node))
        stack.extend(reversed(children))


def _nested_functions(project: Project,
                      module) -> Iterator[FunctionInfo]:
    indexed = {info.node for info in project.functions.values()
               if info.module is module}
    for node in ast.walk(module.tree):
        if isinstance(node, _FUNCTION_NODES) and node not in indexed:
            arguments = node.args
            params = [a.arg for a in (arguments.posonlyargs + arguments.args
                                      + arguments.kwonlyargs)]
            yield FunctionInfo(
                qualname=f"{module.path}::<nested>.{node.name}"
                         f"@{node.lineno}",
                name=node.name, class_name=None, node=node,
                module=module, params=params)


def _binding_names_of(target: ast.AST) -> List[str]:
    names: List[str] = []
    if isinstance(target, ast.Name):
        names.append(target.id)
    elif isinstance(target, ast.Attribute):
        names.append(target.attr)
    elif isinstance(target, ast.Subscript):
        inner = target.value
        while isinstance(inner, ast.Subscript):
            inner = inner.value
        if isinstance(inner, ast.Name):
            names.append(inner.id)
        elif isinstance(inner, ast.Attribute):
            names.append(inner.attr)
    elif isinstance(target, ast.Starred):
        names.extend(_binding_names_of(target.value))
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            names.extend(_binding_names_of(element))
    return names


def _callee_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _is_declassifier(value: ast.AST) -> bool:
    """Values that never make a vocabulary-named target secret."""
    if isinstance(value, ast.Constant):
        return True
    if isinstance(value, ast.Call):
        name = _callee_name(value)
        if name is None:
            return False
        return name == "len" or "encrypt" in name or name in _FRESH_RNG
    return False


def _is_computed_bound(iterable: ast.AST) -> bool:
    return (isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id in {"range", "len"})


def _is_none_presence_test(condition: ast.AST) -> bool:
    if isinstance(condition, ast.UnaryOp) and \
            isinstance(condition.op, ast.Not):
        return _is_none_presence_test(condition.operand)
    return (isinstance(condition, ast.Compare)
            and len(condition.ops) == 1
            and isinstance(condition.ops[0], (ast.Is, ast.IsNot))
            and any(isinstance(side, ast.Constant) and side.value is None
                    for side in (condition.left, condition.comparators[0])))


def _is_raise_only_guard(node: ast.If) -> bool:
    """``if bad: raise ...`` — a fail-stop integrity check.  The taken
    path aborts the protocol run; it does not shape a continuing trace.
    """
    if node.orelse:
        return False
    return all(isinstance(statement, ast.Raise) for statement in node.body)


def _arms_do_real_work(node: ast.IfExp) -> bool:
    """A ternary is a timing sink only when an arm performs observable
    work (a non-builtin call); pure data selection compiles to a fixed
    shape."""
    for arm in (node.body, node.orelse):
        for sub in ast.walk(arm):
            if isinstance(sub, ast.Call):
                name = _callee_name(sub)
                if name is None or name not in _PURE_BUILTINS:
                    return True
    return False
