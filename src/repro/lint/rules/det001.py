"""DET001 — ambient nondeterminism that breaks reproducibility.

The whole test strategy of this repository — golden-master cycle counts,
byte-identical link traces, cross-tier equivalence — depends on every
run of ``run_simulation(config, seed=...)`` being bit-for-bit identical.
One ``time.time()`` in a hot path or one iteration over an unordered
``set`` silently forks histories between runs (and between Python
builds, since set ordering keys on hash randomization for str/bytes).

Flagged sources:

* wall-clock reads — ``time.time`` / ``monotonic`` / ``perf_counter``,
  ``datetime.now`` / ``utcnow`` / ``today``;
* ambient entropy — ``os.urandom``, ``uuid.uuid1/uuid4``,
  ``secrets.*``, and the *module-level* ``random.*`` functions (the
  process-global generator any import can reseed or advance).
  ``random.Random(seed)`` instances are fine — that is what
  ``utils/rng.py`` wraps;
* unordered iteration — ``for … in`` over a set literal, set
  comprehension or ``set(...)`` call, including comprehension
  generators, and ``list(set(...))`` / ``tuple(set(...))``
  materialization.  Sort first: ``sorted(set(...))``;
* order-dependent pool consumption — ``pool.imap_unordered`` results
  arrive in *completion* order, which depends on host scheduling.
  Flagged: ``list(...)`` / ``tuple(...)`` materialization of an
  ``imap_unordered`` call, and ``for`` loops over one whose body
  appends to a list the enclosing scope never passes through
  ``sorted(...)``.  Index-keyed merges (``slots[index] = payload``) and
  append-then-``sorted`` pipelines — the pattern
  :mod:`repro.parallel.sweep` uses — are order-independent and pass.

``utils/rng.py`` (the sanctioned wrapper) and ``crypto/`` (keyed PRFs,
deterministic by construction; a future hardware backend may genuinely
need entropy) are exempt by path.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.findings import Finding
from repro.lint.registry import FileContext, Rule, register
from repro.lint.rules.common import dotted_name

_CLOCK_SUFFIXES = (
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
)
_ENTROPY_SUFFIXES = (
    "os.urandom", "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbelow", "secrets.choice", "secrets.randbits",
)
_RANDOM_MODULE_ALLOWED = frozenset({"Random", "seed", "getstate", "setstate"})


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in {"set", "frozenset"})


def _is_imap_unordered(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "imap_unordered")


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """All nodes of ``scope`` without descending into nested functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _appended_names(loop: ast.For) -> set:
    """Names of lists the loop body grows via ``name.append(...)``."""
    names = set()
    for body_node in loop.body:
        for node in ast.walk(body_node):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in {"append", "extend"}
                    and isinstance(node.func.value, ast.Name)):
                names.add(node.func.value.id)
    return names


def _sorted_names(scope_nodes) -> set:
    """Names that appear as the first argument of a ``sorted(...)`` call."""
    names = set()
    for node in scope_nodes:
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "sorted" and node.args
                and isinstance(node.args[0], ast.Name)):
            names.add(node.args[0].id)
    return names


@register
class NondeterminismSource(Rule):
    rule_id = "DET001"
    title = "ambient nondeterminism source"
    rationale = ("wall clocks, ambient entropy and unordered set iteration "
                 "break golden-master and trace reproducibility; route all "
                 "randomness through utils/rng.py and sort before iterating")
    exempt_markers = ("utils/rng", "crypto/")

    def check(self, context: FileContext) -> Iterator[Finding]:
        yield from self._check_pool_consumption(context)
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Call):
                message = self._call_message(node)
                if message:
                    yield self.finding(context, node, message)
            elif isinstance(node, ast.For):
                if _is_set_expression(node.iter):
                    yield self.finding(
                        context, node,
                        "iteration over an unordered set is "
                        "nondeterministic across runs; sort first "
                        "(sorted(...))")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for generator in node.generators:
                    if _is_set_expression(generator.iter):
                        yield self.finding(
                            context, node,
                            "comprehension over an unordered set is "
                            "nondeterministic across runs; sort first "
                            "(sorted(...))")

    def _call_message(self, node: ast.Call) -> Optional[str]:
        dotted = dotted_name(node.func)
        if dotted is None:
            return None
        for suffix in _CLOCK_SUFFIXES:
            if dotted == suffix or dotted.endswith("." + suffix):
                return (f"wall-clock read {dotted}() makes runs "
                        f"irreproducible; derive timestamps from the "
                        f"simulation clock or pass them in")
        for suffix in _ENTROPY_SUFFIXES:
            if dotted == suffix or dotted.endswith("." + suffix):
                return (f"ambient entropy {dotted}() is unseedable; use a "
                        f"DeterministicRng stream from utils/rng.py")
        parts = dotted.split(".")
        if (len(parts) == 2 and parts[0] == "random"
                and parts[1] not in _RANDOM_MODULE_ALLOWED):
            return (f"module-level {dotted}() uses the process-global "
                    f"generator; use a DeterministicRng stream from "
                    f"utils/rng.py")
        if (isinstance(node.func, ast.Name)
                and node.func.id in {"list", "tuple"} and node.args
                and _is_set_expression(node.args[0])):
            return (f"{node.func.id}(set(...)) materializes unordered "
                    f"elements; use sorted(...) for a stable order")
        if (isinstance(node.func, ast.Name)
                and node.func.id in {"list", "tuple"} and node.args
                and _is_imap_unordered(node.args[0])):
            return (f"{node.func.id}(imap_unordered(...)) captures pool "
                    f"completion order, which depends on host scheduling; "
                    f"carry a submission index and sorted(...) the results")
        return None

    def _check_pool_consumption(self,
                                context: FileContext) -> Iterator[Finding]:
        """Flag ``for`` loops that consume imap_unordered order-dependently.

        A loop is order-independent when its appends feed an accumulator
        the same scope later re-orders with ``sorted(...)``, or when it
        merges by subscript (``slots[index] = ...``) — only unsorted
        appends leak completion order into results.
        """
        if "imap_unordered" not in context.source:
            return
        scopes = [context.tree] + [
            node for node in ast.walk(context.tree)
            if isinstance(node, _SCOPES)]
        for scope in scopes:
            nodes = list(_scope_nodes(scope))
            sorted_names = _sorted_names(nodes)
            for node in nodes:
                if not isinstance(node, ast.For):
                    continue
                if not _is_imap_unordered(node.iter):
                    continue
                unsorted = _appended_names(node) - sorted_names
                if unsorted:
                    accumulators = ", ".join(sorted(unsorted))
                    yield self.finding(
                        context, node,
                        f"loop over imap_unordered() appends to "
                        f"'{accumulators}' in completion order and the "
                        f"result is never re-ordered; carry a submission "
                        f"index and sorted(...) before use")
