"""Suppression-comment parsing.

Two forms, both with room for a trailing justification:

* per-line — on the line a finding is reported at (for a multi-line
  statement, the line the node starts on)::

      if self.tag(m) != t:  # reprolint: disable=SEC001 -- sim-only path

* per-file — anywhere in the file, conventionally near the top::

      # reprolint: disable-file=DET001 -- replay tool, wall clock is fine

Rule lists are comma separated; the token ``all`` silences every rule.
Anything after the rule list (a ``--`` justification, prose) is ignored
by the parser but strongly encouraged by the style guide in
``docs/lint.md``.

Beyond the ``is_suppressed`` predicate, the index keeps two things the
runner's ``--warn-unused-suppressions`` mode needs: the full inventory
of directives as written (:class:`Directive`), and a record of which
``(scope, token)`` pairs actually silenced a finding, so a directive
that suppressed nothing can itself be reported (LINT001).
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, Iterator, List, Set, Tuple, Union

_DIRECTIVE = re.compile(
    r"#\s*reprolint:\s*disable(?P<file>-file)?\s*=\s*(?P<rules>[A-Za-z0-9_,\s]+)"
)
_TOKEN = re.compile(r"[A-Za-z]+[0-9]+|all", re.IGNORECASE)

#: Scope key: the literal string "file" for file-level directives, the
#: directive's line number otherwise.
Scope = Union[str, int]


@dataclass(frozen=True)
class Directive:
    """One ``# reprolint: disable[-file]=...`` comment as written."""

    line: int
    file_level: bool
    tokens: Tuple[str, ...]    # upper-cased, sorted

    @property
    def scope(self) -> Scope:
        return "file" if self.file_level else self.line


class SuppressionIndex:
    """Per-file map of which rules are silenced where.

    ``used`` accumulates ``(scope, token)`` pairs as findings are
    filtered, so unused directives can be computed afterwards.
    """

    def __init__(self) -> None:
        self.file_level: Set[str] = set()
        self.by_line: Dict[int, Set[str]] = {}
        self.directives: List[Directive] = []
        self.used: Set[Tuple[Scope, str]] = set()

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        token = rule_id.upper()
        hit = False
        if token in self.file_level:
            self.used.add(("file", token))
            hit = True
        elif "ALL" in self.file_level:
            self.used.add(("file", "ALL"))
            hit = True
        line_tokens = self.by_line.get(line, set())
        if token in line_tokens:
            self.used.add((line, token))
            hit = True
        elif "ALL" in line_tokens:
            self.used.add((line, "ALL"))
            hit = True
        return hit

    def scope_has_use(self, scope: Scope) -> bool:
        return any(used_scope == scope for used_scope, _ in self.used)


def _iter_comment_lines(source: str) -> Iterator[Tuple[int, str]]:
    """Yield ``(lineno, text)`` for every real comment in the source.

    Tokenizing (rather than scanning raw lines) keeps directive
    *examples* inside docstrings from being honored as live directives.
    Files the tokenizer rejects fall back to a raw line scan so that
    file-level directives still apply to whatever findings the runner
    can produce for them.
    """
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError, ValueError):
        yield from enumerate(source.splitlines(), start=1)
        return
    for token in tokens:
        if token.type == tokenize.COMMENT:
            yield token.start[0], token.string


def parse_suppressions(source: str) -> SuppressionIndex:
    """Scan source comments for reprolint directives.

    Works on comment tokens rather than the AST so that a directive on a
    continuation line attaches to that physical line (where the
    interprocedural rules report lifted findings) instead of erroring.
    """
    index = SuppressionIndex()
    if "reprolint:" not in source:
        # every directive contains the literal; skip the tokenizer
        return index
    for lineno, line in _iter_comment_lines(source):
        match = _DIRECTIVE.search(line)
        if not match:
            continue
        tokens = {token.upper() for token in
                  _TOKEN.findall(match.group("rules"))}
        if not tokens:
            continue
        file_level = bool(match.group("file"))
        index.directives.append(Directive(line=lineno,
                                          file_level=file_level,
                                          tokens=tuple(sorted(tokens))))
        if file_level:
            index.file_level |= tokens
        else:
            index.by_line.setdefault(lineno, set()).update(tokens)
    return index
