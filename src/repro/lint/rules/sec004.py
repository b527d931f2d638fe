"""SEC004 — obliviousness of memory addressing on the stash/bucket path.

Secure DIMM's access-pattern argument is not only about branches: a
*data-dependent address* leaks through the same bus the branch-timing
rule protects.  The classic failures are a subscript indexed by a
secret (``table[leaf]``), a ``dict``/``set`` membership probe keyed by
one (``if leaf in occupied:`` — hash-bucket access patterns follow the
key), and loop bounds already covered by SEC003.

Scope is deliberately the *hot structures* only — stash and bucket
code.  ORAM path selection by leaf (``core/``) is exactly the part of
the address stream the protocol reveals by design (the randomized path
is public; the *position map* binding is the secret), so flagging it
would make the rule unusable.  Inside the stash and bucket containers,
though, addressing must be oblivious: real implementations scan every
slot; an index or membership shortcut keyed on secret state is a leak.

Sinks and sources come from the same interprocedural engine as SEC003
(:mod:`repro.lint.dataflow`), so a secret index reached through a call
chain is caught at the call site.
"""

from __future__ import annotations

from repro.lint.registry import register
from repro.lint.rules.sec003 import TaintFlowRule


@register
class NonObliviousAddressing(TaintFlowRule):
    rule_id = "SEC004"
    title = "secret-dependent memory addressing"
    rationale = ("subscript indices and membership probes on the "
                 "stash/bucket hot path must not depend on secret "
                 "state; hash-bucket and index access patterns are "
                 "observable")
    family = "address"
    path_markers = ("stash", "bucket")
