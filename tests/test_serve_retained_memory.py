"""A long serving run must not make the protocol hold more memory.

Everything a protocol keeps between requests is bounded by its tree,
its address space and its queues, so serving 3,000 requests must leave
it no larger than serving 1,000.  The walk below sizes every object
reachable from the protocol, its counter-mode ciphers included: a
cipher keeps one pad per nonce, so its memo is bounded by the bucket
count.  The walk skips classes, modules and functions, which are shared
code rather than protocol state.

INDEP-SPLIT is the design this guards: each group runs a Split protocol
with its own link, below the top-level link the scheduler meters.
"""

import gc
import sys
import types

from repro.serve.bench import ServeSpec, generate_requests, serve_requests

_SHARED = (type, types.ModuleType, types.FunctionType,
           types.BuiltinFunctionType, types.CodeType)


def _retained_bytes(root) -> int:
    seen, stack, total = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _SHARED):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


def _served(requests: int):
    spec = ServeSpec(design="indep-split", levels=9, rate=0.008, seed=1,
                     requests=requests)
    protocol, outcome = serve_requests(spec, generate_requests(spec))
    assert len(outcome.completions) == requests
    return protocol


def test_indep_split_retained_memory_does_not_grow_with_requests():
    short = _retained_bytes(_served(1_000))
    long = _retained_bytes(_served(3_000))
    # the tree, position maps and queues fill within the first thousand
    # requests; 2,000 more may only move a few blocks between them
    assert long - short < 64 * 1024, (short, long)
