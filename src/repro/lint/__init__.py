"""reprolint — static analysis for this repository's invariants.

Secure DIMM's security argument and this reproduction's test strategy
both rest on coding invariants no ordinary linter checks: MAC/tag
comparisons must be constant-time (SEC001), protocol control flow must
not depend on secret state, whole-program (SEC003) — memory addressing on the stash/bucket hot path must be
oblivious (SEC004), nothing outside the sanctioned RNG may consume
ambient nondeterminism (DET001), cycle accounting must stay in exact
integers (DET002), and pool fan-out must be deterministic across
processes (DET003).  ``python -m repro lint`` enforces all of them;
``docs/lint.md`` documents each family, the taint-source annotation
convention and the suppression syntax.

Public API::

    from repro.lint.runner import lint_paths, lint_source
    result = lint_paths(["src/repro"])
    result.exit_code()   # 0 clean, 1 findings, 2 file errors
"""
