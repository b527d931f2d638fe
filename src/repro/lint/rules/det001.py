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
  materialization.  Sort first: ``sorted(set(...))``.

Pool completion order is not a source here: only ``parallel/pool.py``
may import a process pool (``tests/test_import_graph.py``), and it
consumes results in submission order.

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


@register
class NondeterminismSource(Rule):
    rule_id = "DET001"
    title = "ambient nondeterminism source"
    rationale = ("wall clocks, ambient entropy and unordered set iteration "
                 "break golden-master and trace reproducibility; route all "
                 "randomness through utils/rng.py and sort before iterating")
    exempt_markers = ("utils/rng", "crypto/")

    def check(self, context: FileContext) -> Iterator[Finding]:
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
        return None
