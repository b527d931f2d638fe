"""DET003 fixture outside parallel/ and serve/: the worker is named by
keyword and mutates a module global one call deep."""

from repro.parallel.pool import fanout

_SEEN = []


def _note(spec):
    _SEEN.append(spec)


def _campaign_worker(spec):
    _note(spec)
    return {"seed": spec.seed}


def run_campaigns(specs, jobs):
    return fanout(specs, worker=_campaign_worker, jobs=jobs)
