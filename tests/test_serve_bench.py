"""End-to-end serving benchmark tests: determinism, caching, the model."""

import pytest

from repro.analysis.queueing import mm1k_full_probability
from repro.parallel import fingerprint as fingerprint_module
from repro.parallel.cache import RunCache
from repro.parallel.pool import fanout
from repro.serve.bench import (
    ServeSpec,
    generate_requests,
    run_serve,
    run_serve_sweep,
    serve_request,
)
from repro.serve.slo import canonical_json, compare_with_model

SMALL = dict(levels=5, requests=64, capacity=16, batch=4, seed=2018)


def sweep_reports(specs, **sweep):
    """A serving sweep's reports, without ``fanout``'s host metadata."""
    return [report for report, _ in run_serve_sweep(specs, **sweep)]


def render(reports):
    """The exact bytes ``serve-bench --report`` writes."""
    return "[" + ",".join(canonical_json(report) for report in reports) + "]\n"


class TestServeSpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ServeSpec(design="mystery")
        with pytest.raises(ValueError):
            ServeSpec(rate=-1.0)
        with pytest.raises(ValueError):
            ServeSpec(capacity=0)
        with pytest.raises(ValueError):
            ServeSpec(tenants=0)

    def test_round_trips_through_dict(self):
        spec = ServeSpec(design="independent", rate=0.01, tenants=3,
                         profile="mcf", **SMALL)
        assert ServeSpec.from_dict(spec.to_dict()) == spec

    def test_address_limit_matches_tree(self):
        assert ServeSpec(levels=9).address_limit == 256

    def test_plain_split_records_the_two_ways_it_serves(self):
        four = ServeSpec(design="split", sites=4, rate=0.01, **SMALL)
        two = ServeSpec(design="split", sites=2, rate=0.01, **SMALL)
        assert four == two
        assert canonical_json(run_serve(four)) == \
            canonical_json(run_serve(two))
        assert ServeSpec(design="independent", sites=4, **SMALL).sites == 4

    def test_tenants_partition_load(self):
        spec = ServeSpec(rate=0.03, tenants=3, **SMALL)
        tenant_specs = spec.tenant_specs()
        assert len(tenant_specs) == 3
        assert sum(t.rate for t in tenant_specs) == pytest.approx(0.03)
        assert sum(t.requests for t in tenant_specs) == spec.requests
        requests = generate_requests(spec)
        assert {r.tenant for r in requests} == {"t0", "t1", "t2"}
        assert all(r.address < spec.address_limit for r in requests)


class TestRunServe:
    def test_zero_rate_is_an_empty_report(self):
        report = run_serve(ServeSpec(rate=0.0, **SMALL))
        assert report["totals"]["offered"] == 0
        assert report["totals"]["shed"] == 0
        assert report["queue"]["depth_bounded"] is True
        assert report["sojourn"]["aggregate"]["count"] == 0

    def test_same_spec_same_bytes(self):
        spec = ServeSpec(rate=0.01, write_fraction=0.5, **SMALL)
        assert canonical_json(run_serve(spec)) == \
            canonical_json(run_serve(spec))

    def test_underload_is_stable(self):
        report = run_serve(ServeSpec(rate=0.005, **SMALL))
        assert report["model"]["rho_offered"] < 1.0
        assert report["totals"]["shed"] == 0
        assert report["queue"]["depth_bounded"] is True
        assert report["sojourn"]["aggregate"]["count"] == \
            report["totals"]["completed"]

    def test_saturation_sheds_without_traceback(self):
        spec = ServeSpec(rate=0.5, requests=200, levels=5, capacity=8,
                         batch=1, seed=2018)
        report = run_serve(spec)
        assert report["model"]["rho_offered"] > 1.0
        assert report["totals"]["shed"] > 0
        assert report["queue"]["peak_depth"] <= spec.capacity
        assert report["queue"]["depth_bounded"] is True
        records = report["shed_records"]
        assert len(records) == report["totals"]["shed"]
        assert all(record["reason"] == "queue-full" for record in records)

    def test_overload_shed_tracks_mm1k_envelope(self):
        """Deep overload: shed rate approaches 1 - 1/rho for any service
        distribution, so the M/M/1/K reference must sit nearby."""
        spec = ServeSpec(rate=0.5, requests=400, levels=5, capacity=8,
                         batch=1, seed=2018)
        comparison = compare_with_model(run_serve(spec))
        assert comparison["rho"] > 1.0
        assert comparison["measured_shed_rate"] == pytest.approx(
            comparison["predicted_full_probability"], abs=0.15)
        assert comparison["predicted_full_probability"] == pytest.approx(
            mm1k_full_probability(comparison["rho"], spec.capacity))

    def test_zero_rate_render_and_comparison_survive(self):
        """A legitimately idle point renders and compares without error."""
        from repro.serve.slo import render_table

        report = run_serve(ServeSpec(rate=0.0, requests=0, **{
            key: value for key, value in SMALL.items()
            if key != "requests"}))
        table = render_table([report], title="idle")
        assert "idle" in table and "0.0000" in table
        comparison = compare_with_model(report)
        assert comparison["rho"] == 0.0
        assert comparison["measured_shed_rate"] == 0.0

    def test_compare_with_model_keeps_zero_rho_offered(self):
        """``rho_offered == 0.0`` is a measurement, not a missing field.

        Regression pin for the ``or``-fallback bug: a report with a
        legitimate zero offered rho must NOT silently swap in the
        measured utilization — only an absent field falls back.
        """
        zero = {"model": {"rho_offered": 0.0, "rho_measured": 0.7,
                          "mm1k_full_probability": 0.0, "shed_rate": 0.0}}
        assert compare_with_model(zero)["rho"] == 0.0
        absent = {"model": {"rho_measured": 0.7,
                            "mm1k_full_probability": 0.0,
                            "shed_rate": 0.0}}
        assert compare_with_model(absent)["rho"] == 0.7

    def test_coalescing_preserves_read_bytes(self):
        """Batched (coalescing) and serial (no coalescing) runs of the
        same hot-set stream return identical bytes to every read."""
        hot = dict(rate=0.05, levels=5, requests=96, capacity=64,
                   zipf_exponent=1.4, write_fraction=0.3, seed=2018)
        batched = run_serve(ServeSpec(batch=8, **hot), keep_read_bytes=True)
        serial = run_serve(ServeSpec(batch=1, **hot), keep_read_bytes=True)
        assert batched["totals"]["coalesced"] > 0
        assert serial["totals"]["coalesced"] == 0
        assert batched["_read_bytes"] == serial["_read_bytes"]
        # coalescing saved real protocol work
        assert batched["totals"]["accesses"] < serial["totals"]["accesses"]


class TestSweepDeterminism:
    def specs(self):
        return [ServeSpec(design=design, rate=rate, **SMALL)
                for design in ("independent", "split")
                for rate in (0.005, 0.02)]

    def test_jobs_one_vs_four_byte_identical(self):
        serial = sweep_reports(self.specs(), jobs=1)
        fanned = sweep_reports(self.specs(), jobs=4)
        assert render(serial) == render(fanned)

    def test_cached_replay_byte_identical(self, tmp_path):
        cache = RunCache(str(tmp_path / "serve-cache"))
        first = sweep_reports(self.specs(), jobs=2, cache=cache)
        misses = cache.stats.misses
        replay = sweep_reports(self.specs(), jobs=1, cache=cache)
        assert render(first) == render(replay)
        assert cache.stats.misses == misses      # replay was all hits
        assert cache.stats.hits >= len(self.specs())

    def test_cache_key_separates_specs(self, tmp_path):
        a, b = self.specs()[:2]
        cache = RunCache(str(tmp_path / "serve-cache"))
        fanout([a, b, ServeSpec(**a.to_dict())], lambda _: {}, jobs=1,
               cache=cache, key=serve_request)
        assert cache.entry_count() == 2

    def test_code_change_turns_a_warm_point_into_a_miss(self, tmp_path,
                                                         monkeypatch):
        cache = RunCache(str(tmp_path / "serve-cache"))
        specs = self.specs()[:1]
        outcomes = run_serve_sweep(specs, cache=cache)
        outcomes += run_serve_sweep(specs, cache=cache)
        monkeypatch.setattr(fingerprint_module, "_cached_fingerprint",
                            "0" * 64)
        outcomes += run_serve_sweep(specs, cache=cache)
        assert [meta["from_cache"] for _, meta in outcomes] == \
            [False, True, False]
