"""DET003 clean fixture: a pure worker through the one fan-out."""

from repro.parallel.pool import fanout

_SCALE = 2


def run_point(spec):
    return {"index": spec.index, "value": spec.value * _SCALE}


def sweep(specs, jobs):
    return [payload for payload, _ in fanout(specs, run_point, jobs=jobs)]
