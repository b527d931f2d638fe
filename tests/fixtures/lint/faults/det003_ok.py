"""DET003 clean fixture outside parallel/ and serve/: the keyword-named
worker keeps its state local."""

from repro.parallel.pool import fanout


def _campaign_worker(spec):
    seen = []
    seen.append(spec.seed)
    return {"seen": seen}


def run_campaigns(specs, jobs):
    return fanout(specs, worker=_campaign_worker, jobs=jobs)
