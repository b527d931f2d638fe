"""The crypto work of one read-mostly Split serving run, pinned.

Path ORAM and PMMAC fix how much crypto one access does: one
``Prf.evaluate`` per pad and per MAC, one ``PmmacAuthenticator.tag``
per stored slice, and a fixed set of link events.  A host-speed change
to the Split protocol must leave all three counts exactly where they
are; only the bookkeeping around them may get cheaper.  The spec is
``perfbench``'s ``SERVE_READ`` workload at the seed of its first run.
"""

from repro.crypto.mac import PmmacAuthenticator
from repro.crypto.prf import Prf
from repro.serve.bench import ServeSpec, generate_requests, serve_requests

SERVE_READ = ServeSpec(design="split", levels=9, sites=2, rate=0.036,
                       requests=128, capacity=32, batch=8, tenants=4,
                       zipf_exponent=0.99, write_fraction=0.1, seed=8)


def _counting(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_serve_read_crypto_work_is_pinned(monkeypatch):
    counts = {"evaluate": 0, "tag": 0}
    _counting(monkeypatch, Prf, "evaluate", counts)
    _counting(monkeypatch, PmmacAuthenticator, "tag", counts)
    protocol, outcome = serve_requests(SERVE_READ,
                                       generate_requests(SERVE_READ))
    counts["link"] = len(protocol.link)
    assert outcome.completions
    assert counts == {"evaluate": 7864, "tag": 3932, "link": 3250}
