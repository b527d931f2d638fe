"""Tests for the open-loop load generator (repro.serve.loadgen)."""

import pytest

from repro.oram.path_oram import Op
from repro.serve.loadgen import (
    Request,
    TenantSpec,
    generate_stream,
    merge_streams,
    offered_load,
    tenant_from_profile,
)


def stream(spec, seed=7, base=0, limit=256, block_bytes=64):
    return generate_stream(spec, seed, base_address=base,
                           address_limit=limit, block_bytes=block_bytes)


class TestTenantSpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TenantSpec(name="t", rate=-0.1, requests=10)
        with pytest.raises(ValueError):
            TenantSpec(name="t", rate=0.1, requests=10, arrival="weird")
        with pytest.raises(ValueError):
            TenantSpec(name="t", rate=0.1, requests=10, write_fraction=1.5)
        with pytest.raises(ValueError):
            TenantSpec(name="t", rate=0.1, requests=10,
                       address_span=8, hot_span=16)
        with pytest.raises(ValueError):
            TenantSpec(name="t", rate=0.1, requests=10, burst_factor=0.5)

    def test_from_profile_borrows_locality_knobs(self):
        from repro.workloads.spec import get_profile

        spec = tenant_from_profile("t0", "mcf", rate=0.1, requests=10,
                                   address_span=128)
        profile = get_profile("mcf")
        assert spec.hot_fraction == profile.hot_fraction
        assert spec.write_fraction == profile.write_fraction
        assert 1 <= spec.hot_span <= 128

    def test_from_profile_unknown_name_raises(self):
        with pytest.raises(ValueError):
            tenant_from_profile("t0", "no-such-benchmark", rate=0.1,
                                requests=10)


class TestGeneration:
    def test_zero_rate_stream_is_empty(self):
        assert stream(TenantSpec(name="t", rate=0.0, requests=100)) == []

    def test_zero_requests_stream_is_empty(self):
        assert stream(TenantSpec(name="t", rate=0.5, requests=0)) == []

    def test_deterministic_per_seed(self):
        spec = TenantSpec(name="t", rate=0.05, requests=64,
                          write_fraction=0.3, hot_fraction=0.4, hot_span=8)
        assert stream(spec, seed=7) == stream(spec, seed=7)
        assert stream(spec, seed=7) != stream(spec, seed=8)

    def test_arrivals_sorted_and_rate_roughly_honoured(self):
        spec = TenantSpec(name="t", rate=0.1, requests=400)
        requests = stream(spec)
        arrivals = [request.arrival for request in requests]
        assert arrivals == sorted(arrivals)
        measured = offered_load([requests])
        assert measured == pytest.approx(0.1, rel=0.25)

    def test_uniform_arrivals_fixed_spacing(self):
        spec = TenantSpec(name="t", rate=0.25, requests=10,
                          arrival="uniform")
        arrivals = [request.arrival for request in stream(spec)]
        gaps = {b - a for a, b in zip(arrivals, arrivals[1:])}
        assert gaps == {4}

    def test_burst_arrivals_are_burstier_than_poisson(self):
        """Hyperexponential gaps: same mean neighbourhood, fatter tail."""
        poisson = stream(TenantSpec(name="t", rate=0.05, requests=800))
        burst = stream(TenantSpec(name="t", rate=0.05, requests=800,
                                  arrival="burst", burst_factor=16.0,
                                  burst_fraction=0.25))
        def squared_cv(requests):
            gaps = [b.arrival - a.arrival
                    for a, b in zip(requests, requests[1:])]
            mean = sum(gaps) / len(gaps)
            var = sum((gap - mean) ** 2 for gap in gaps) / len(gaps)
            return var / (mean * mean)
        assert squared_cv(burst) > squared_cv(poisson)

    def test_addresses_respect_base_and_limit(self):
        spec = TenantSpec(name="t", rate=0.2, requests=200,
                          address_span=32)
        for request in stream(spec, base=64, limit=96):
            assert 64 <= request.address < 96

    def test_hot_fraction_concentrates_addresses(self):
        spec = TenantSpec(name="t", rate=0.2, requests=500,
                          address_span=64, hot_fraction=0.9, hot_span=4)
        hot = sum(request.address < 4 for request in stream(spec))
        assert hot > 400

    def test_zipf_skews_toward_low_ranks(self):
        uniform = stream(TenantSpec(name="t", rate=0.2, requests=500,
                                    address_span=64))
        zipf = stream(TenantSpec(name="t", rate=0.2, requests=500,
                                 address_span=64, zipf_exponent=1.2))
        def head(requests):
            return sum(r.address < 8 for r in requests)
        assert head(zipf) > 2 * head(uniform)

    def test_write_fraction_and_payloads(self):
        spec = TenantSpec(name="t", rate=0.2, requests=300,
                          write_fraction=0.5)
        requests = stream(spec, block_bytes=64)
        writes = [r for r in requests if r.op is Op.WRITE]
        reads = [r for r in requests if r.op is Op.READ]
        assert 0.35 < len(writes) / len(requests) < 0.65
        assert all(len(r.data) == 64 for r in writes)
        assert all(r.data is None for r in reads)


class TestMerge:
    def test_total_deterministic_order(self):
        a = [Request(arrival=5, tenant="a", sequence=0, address=1,
                     op=Op.READ),
             Request(arrival=9, tenant="a", sequence=1, address=2,
                     op=Op.READ)]
        b = [Request(arrival=5, tenant="b", sequence=0, address=3,
                     op=Op.READ)]
        merged = merge_streams([a, b])
        assert [(r.arrival, r.tenant) for r in merged] == \
            [(5, "a"), (5, "b"), (9, "a")]
        assert merge_streams([b, a]) == merged

    def test_offered_load_empty(self):
        assert offered_load([[], []]) == 0.0
