"""DET003 fixture: a fan-out worker that mutates one module global and
reads another that other code mutates."""

from repro.parallel.pool import fanout

_SCRATCH = {}
_REGISTRY = {}


def register(name, value):
    _REGISTRY[name] = value


def run_point(spec):
    _SCRATCH[spec.key] = spec.value
    return _REGISTRY.get(spec.key, spec.value)


def sweep(specs, jobs):
    return fanout(specs, run_point, jobs=jobs)
