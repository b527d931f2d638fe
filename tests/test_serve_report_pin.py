"""Report-digest pins for the serving tier (single server and sharded).

Each point's canonical report (``canonical_json``, what ``--report``
writes) is hashed and compared against a recorded sha256.  A refactor of
the serving path must reproduce these bytes exactly; a deliberate change
to the report layout or the served timeline must update the digests and
say so.

The sharded points are ``ServeSpec`` points with ``shards > 1``.
"""

import hashlib

import pytest

from repro.serve.bench import ServeSpec, run_serve_sweep
from repro.serve.router import fold_shard_reports
from repro.serve.shard import run_shard
from repro.serve.slo import canonical_json

BASE = dict(levels=7, requests=150, rate=0.1, capacity=8,
            zipf_exponent=1.1, seed=2018)

SINGLE = {
    "split": (dict(design="split"),
              "2fce4c6649fcb310583c755380bc140e"
              "f9d23c12ef8d6b5788fd69070c36917d"),
    "independent": (dict(design="independent"),
                    "09940ecac635513236f3556956960572"
                    "af1f1dce7055c457cb3968bde25c1f7e"),
    "indep-split": (dict(design="indep-split"),
                    "17da88091e0f5965164f8fdf6ba38f76"
                    "a832c6633911c57ee582711ca9ab12d8"),
    "split-adapt-declassified": (
        dict(design="split", rate=0.02, adapt=True, tenants=2,
             declassified=("t1",)),
        "e99f9fcf9ef45886e5e294c0b8c22f38"
        "013e732e1d149eb0e2bc188eec459110"),
}

SHARDED = {
    "shards-2": (dict(shards=2),
                 "bbb5ff4a995a7a825cf669a9a6de34f7"
                 "d8aae285d4c19d18c7b07f2cac671f7a"),
    "shards-4": (dict(shards=4),
                 "eb2de8adcc880777be11acfaecbc65a3"
                 "8c3c7fe0acd0767d83805a16d585f94a"),
    "shards-4-quarantined": (dict(shards=4, quarantined=(2,)),
                             "6f51773f9d1f479c209049b91ce0469e"
                             "e8c437dede271794b3e2be9b04d5cbdb"),
    "shards-2-adapt": (dict(shards=2, adapt=True, window_ticks=64),
                       "364bb055de1ae1bb955a9e4f6540d040"
                       "0a2f5eb139f97ac7924f734d1485a213"),
}


def _digest(report):
    return hashlib.sha256(canonical_json(report).encode()).hexdigest()


def _sharded_spec(**fields):
    return ServeSpec(**dict(BASE, design="independent", rate=0.4,
                            **fields))


@pytest.mark.parametrize("name", sorted(SINGLE))
def test_single_server_report_bytes_are_pinned(name):
    fields, expected = SINGLE[name]
    [(report, _)] = run_serve_sweep([ServeSpec(**dict(BASE, **fields))])
    assert _digest(report) == expected


@pytest.mark.parametrize("name", sorted(SHARDED))
def test_sharded_report_bytes_are_pinned(name):
    fields, expected = SHARDED[name]
    spec = _sharded_spec(**fields)
    report = fold_shard_reports(
        spec, [(shard, run_shard(spec, shard))
               for shard in range(spec.shards)])
    assert _digest(report) == expected
