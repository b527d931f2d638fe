"""The adversary bus-trace audit: the threat model, executed in CI.

The load-bearing assertions of ISSUE 2's acceptance criteria live here:
every Figure-8 design's adversary-visible trace must be indistinguishable
across address streams, and a seeded fault injection (a real leaf bit
wired into a FETCH_RESULT payload size) must be *detected* — otherwise
the audit is vacuous.
"""

import pytest

from repro.obs.audit import (FORBIDDEN_ADVERSARY_ARGS, AuditResult,
                             adversary_observations, audit_address_streams,
                             audit_freecursive_protocol, audit_pair,
                             audit_protocol, audit_timing_design,
                             compare_observables, run_full_audit,
                             scan_secret_args)
from repro.obs.tracer import CATEGORY_LINK, TraceEvent


class TestAddressStreams:
    def test_streams_differ_and_b_reuses(self):
        stream_a, stream_b = audit_address_streams(32, span=1 << 10)
        assert stream_a != stream_b
        assert len(stream_a) == len(stream_b) == 32
        # Stream B must be reuse-heavy: repeated addresses carry freshly
        # remapped leaves, which is what breaks the relabeling symmetry
        # that would otherwise let a leaf-parity leak cancel out.
        assert len(set(stream_b)) < len(stream_b)

    def test_streams_are_deterministic(self):
        assert (audit_address_streams(16, seed=5) ==
                audit_address_streams(16, seed=5))


class TestTimingTierAudit:
    @pytest.mark.parametrize("design", ["freecursive", "indep-2", "split-2"])
    def test_figure8_designs_are_indistinguishable(self, design):
        result = audit_timing_design(design, misses=6)
        assert result.passed, result.describe()

    def test_nonsecure_is_distinguishable(self):
        # Negative control: the non-secure baseline's row/bank activity IS
        # the address stream, so the audit must flag it.
        result = audit_timing_design("nonsecure", misses=6)
        assert not result.passed
        assert result.first_divergence is not None


class TestProtocolTierAudit:
    @pytest.fixture(scope="class")
    def streams(self):
        return audit_address_streams(32, span=1 << 10)

    def test_independent(self, streams):
        result = audit_protocol("independent", *streams)
        assert result.passed, result.describe()

    def test_split(self, streams):
        result = audit_protocol("split", *streams)
        assert result.passed, result.describe()

    def test_indep_split(self, streams):
        result = audit_protocol("indep-split", *streams, levels=7)
        assert result.passed, result.describe()

    def test_freecursive(self, streams):
        result = audit_freecursive_protocol(*streams)
        assert result.passed, result.describe()

    def test_injected_leak_is_detected(self, streams):
        # The audit must have teeth: wiring posmap leaf parity into the
        # FETCH_RESULT payload size must render the traces distinguishable.
        result = audit_protocol("independent", *streams,
                                inject_leak=True)
        assert not result.passed
        assert result.first_divergence is not None
        index, seen_a, seen_b = result.first_divergence
        assert seen_a != seen_b


class TestShardedRoutingAudit:
    @pytest.fixture(scope="class")
    def streams(self):
        return audit_address_streams(32, span=1 << 10)

    def test_routing_is_not_visible_on_the_link(self, streams):
        from repro.obs.audit import audit_sharded_routing

        result = audit_sharded_routing(*streams)
        assert result.passed, result.describe()
        assert result.length_a > 0

    def test_holds_for_wider_rings(self, streams):
        from repro.obs.audit import audit_sharded_routing

        result = audit_sharded_routing(*streams, shards=4, subtrees=16,
                                       levels=7)
        assert result.passed, result.describe()

    def test_exposed_shard_identity_is_caught(self, streams):
        # Negative control: the shard index is a function of the address,
        # so a deployment that lets the adversary tell shards apart is
        # address-distinguishable and the audit must flag it.
        from repro.obs.audit import audit_sharded_routing

        result = audit_sharded_routing(*streams, expose_shard=True)
        assert not result.passed
        assert result.first_divergence is not None


class TestSecretArgScreen:
    def test_clean_events_pass(self):
        events = [TraceEvent("span", "burst", "dram", "main0", 0, 4,
                             {"bank": 1, "row": 9})]
        assert scan_secret_args(events) == []

    def test_forbidden_arg_is_flagged(self):
        assert "leaf" in FORBIDDEN_ADVERSARY_ARGS
        events = [TraceEvent("instant", "issue", "bus", "bus0", 3, 0,
                             {"leaf": 42})]
        violations = scan_secret_args(events)
        assert violations and "leaf" in violations[0]

    def test_real_run_traces_carry_no_secret_args(self):
        from repro.config import DesignPoint, small_config
        from repro.obs.tracer import CollectingTracer
        from repro.sim.system import run_simulation

        tracer = CollectingTracer()
        run_simulation(small_config(DesignPoint.INDEP_2), "mcf",
                       trace_length=400, tracer=tracer)
        assert scan_secret_args(adversary_observations(tracer.events)) == []

    def test_audit_pair_fails_equal_runs_that_leak_a_secret(self):
        # the observables match, but both runs put a leaf on the link:
        # the screen alone must fail the comparison
        def observe(stream, tracer):
            tracer.instant("ACCESS", CATEGORY_LINK, "link", 0, leaf=stream[0])
            return ["ACCESS"]

        result = audit_pair("t", "unit", ([1], [2]), observe)
        assert result.indistinguishable and not result.passed
        assert len(result.secret_arg_violations) == 2
        assert result.describe().startswith(
            "t: FAIL — secret-tainted payloads: link/ACCESS on link at 0 "
            "carries forbidden arg 'leaf'")

    def test_freecursive_bucket_touches_are_screened(self, monkeypatch):
        # Freecursive's tree sits CPU-side: a leaf planted on its bucket
        # instants is on the main channel, and the audit must fail on it
        import repro.obs.audit as audit
        from repro.obs.tracer import BUCKET_EVENT, CollectingTracer

        class PlantingTracer(CollectingTracer):
            def instant(self, name, category, lane, ts, **args):
                if name == BUCKET_EVENT:
                    args["leaf"] = 0
                super().instant(name, category, lane, ts, **args)

        monkeypatch.setattr(audit, "CollectingTracer", PlantingTracer)
        result = audit_freecursive_protocol(*audit_address_streams(12))
        assert result.indistinguishable and not result.passed
        assert len(result.secret_arg_violations) == 2 * result.length_a
        assert "secret-tainted payloads" in result.describe()


class TestCompareObservables:
    def test_identical_streams_pass(self):
        result = compare_observables("t", "unit", [1, 2], [1, 2], [])
        assert isinstance(result, AuditResult)
        assert result.passed

    def test_divergence_is_located(self):
        result = compare_observables("t", "unit", [1, 2, 3], [1, 9, 3], [])
        assert not result.passed
        assert result.first_divergence[0] == 1

    def test_length_mismatch_fails(self):
        assert not compare_observables("t", "unit", [1], [1, 2], []).passed


class TestFullAudit:
    def test_full_audit_is_sound(self):
        results = run_full_audit(misses=6, accesses=24)
        assert len(results) >= 8
        by_name = {result.name: result for result in results}
        negatives = [name for name in by_name
                     if name.startswith("negative-control:")]
        assert negatives, "the audit must include a negative control"
        for name, result in by_name.items():
            if name.startswith("negative-control:"):
                assert not result.passed, f"{name} vacuously passed"
            else:
                assert result.passed, result.describe()


class TestCliVerb:
    def test_audit_trace_exit_code(self, capsys):
        from repro.cli import main

        code = main(["audit-trace", "--misses", "5", "--accesses", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "negative-control" in out

    def test_audit_trace_ci_report_is_pinned(self, capsys):
        # CI's arguments: every audit, every faulted variant and all four
        # negative controls; any change to a verdict line moves the digest
        import hashlib

        from repro.cli import main

        code = main(["audit-trace", "--misses", "8", "--accesses", "32",
                     "--inject-leak", "--with-faults"])
        assert code == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "9e59877aae4794502cd2a1b2d98fd0cf07f1b545e8c4b6aab44cda390b6b5719")
