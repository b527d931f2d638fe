"""Integration tests for the adaptive control plane end to end.

The control loop must change behaviour (that's the point) without
changing the determinism or obliviousness contracts: adaptive reports
stay byte-identical across ``--jobs`` values and cached replays, the
decision log rides inside the digest-protected ledger core, morphed
tenants bypass the ORAM and replay their dirty blocks on
reclassification, and the :func:`repro.obs.audit.audit_adaptive_control`
gate holds — including its tainted-signal negative control.
"""

import pytest

from repro.control.morph import MorphController
from repro.control.plane import ServeControlPlane
from repro.core.commands import SdimmCommand
from repro.core.secure_buffer import LinkRecorder
from repro.obs.audit import audit_adaptive_control, run_full_audit
from repro.obs.tracer import CATEGORY_LINK, NULL_TRACER
from repro.oram.path_oram import Op
from repro.parallel.cache import RunCache
from repro.serve.bench import ServeSpec, run_serve, run_serve_sweep
from repro.serve.loadgen import Request
from repro.serve.scheduler import BatchingScheduler
from repro.serve.slo import canonical_json


def sweep_reports(specs, **sweep):
    """A serving sweep's reports, without ``fanout``'s host metadata."""
    return [report for report, _ in run_serve_sweep(specs, **sweep)]


def adaptive_spec(**overrides):
    """A small adaptive serving point that exercises every controller."""
    base = dict(design="split", levels=6, rate=0.05, requests=96,
                capacity=8, batch=4, tenants=2, seed=7,
                adapt=True, slo_p99=512, window_ticks=256,
                declassified=("t1",))
    base.update(overrides)
    return ServeSpec(**base)


class _StubProtocol:
    """A protocol double: constant-size blocks, logged calls, and one
    link message (so one service tick) per access."""

    def __init__(self, block_bytes=64):
        self.block_bytes = block_bytes
        self.calls = []
        self.link = LinkRecorder()

    def access(self, address, op, data=None):
        self.calls.append((address, op, data))
        self.link.up(SdimmCommand.ACCESS, 0, self.block_bytes)
        return data if data is not None else bytes(self.block_bytes)


class TestSpecValidation:
    def test_declassified_requires_adapt(self):
        with pytest.raises(ValueError, match="adapt"):
            ServeSpec(declassified=("t0",))

    def test_adaptive_spec_round_trips(self):
        spec = adaptive_spec()
        assert ServeSpec.from_dict(spec.to_dict()) == spec

    def test_shard_spec_threads_control_fields(self):
        spec = ServeSpec(design="independent", shards=2, adapt=True,
                         slo_p99=300, window_ticks=128,
                         declassified=("t0",))
        plane = spec.control_plane()
        assert plane.window_ticks == 128
        assert plane.admission.slo_p99 == 300
        assert plane.morph is not None
        assert spec.to_dict()["declassified"] == ["t0"]

    def test_unknown_declassified_tenant_is_rejected(self):
        with pytest.raises(ValueError, match="t9"):
            adaptive_spec(tenants=3, declassified=("t9",))


class TestAdaptiveDeterminism:
    def test_adaptive_report_is_byte_stable(self):
        spec = adaptive_spec()
        assert canonical_json(run_serve(spec)) == \
            canonical_json(run_serve(spec))

    def test_adaptive_report_carries_control_section(self):
        report = run_serve(adaptive_spec())
        control = report["control"]
        assert control["window_ticks"] == 256
        assert control["decisions"], "an adaptive run must log decisions"
        assert control["applied"] == sum(
            1 for d in control["decisions"] if d["applied"])
        assert report["totals"]["plain_accesses"] >= 0

    def test_open_loop_report_has_null_control(self):
        report = run_serve(adaptive_spec(adapt=False, declassified=()))
        assert report["control"] is None
        assert report["totals"]["plain_accesses"] == 0

    def test_adaptive_sweep_identical_across_jobs(self):
        specs = [adaptive_spec(), adaptive_spec(rate=0.02)]
        serial = sweep_reports(specs, jobs=1)
        fanned = sweep_reports(specs, jobs=2)
        assert canonical_json(serial) == canonical_json(fanned)

    def test_adaptive_sweep_identical_across_cache_replay(self, tmp_path):
        specs = [adaptive_spec()]
        cache = RunCache(str(tmp_path / "serve-cache"))
        first = sweep_reports(specs, jobs=1, cache=cache)
        replay = sweep_reports(specs, jobs=1, cache=cache)
        assert canonical_json(first) == canonical_json(replay)

    def test_adaptation_changes_the_outcome(self):
        """The loop must actually act: adaptive vs open-loop reports
        differ beyond the spec echo (knobs moved, behaviour followed)."""
        adaptive = run_serve(adaptive_spec(declassified=()))
        open_loop = run_serve(adaptive_spec(adapt=False, declassified=()))
        assert adaptive["control"]["applied"] > 0
        assert adaptive["totals"] != open_loop["totals"] or \
            adaptive["sojourn"] != open_loop["sojourn"]


class TestLedgerProtection:
    def test_decisions_ride_in_the_digest_core(self):
        from repro.obs.ledger import serve_core

        report = run_serve(adaptive_spec())
        core = serve_core(report, "fingerprint")
        assert core["measure"]["control"] == report["control"]

    def test_tampered_decision_changes_the_digest(self):
        import copy

        from repro.obs.ledger import core_digest, serve_core

        report = run_serve(adaptive_spec())
        honest = core_digest(serve_core(report, "fingerprint"))
        tampered = copy.deepcopy(report)
        tampered["control"]["decisions"][0]["applied"] = \
            not tampered["control"]["decisions"][0]["applied"]
        assert core_digest(serve_core(tampered, "fingerprint")) != honest


class TestMorphedServing:
    def _requests(self):
        """t0 (declassified): a hot burst, then silence, then a probe.

        Window 0-1 carry >= high-watermark requests each (sustained high
        load -> morph), windows 2-3 carry one request each (sustained
        low load -> reclassify), and the final probe re-reads a morphed-
        era address after reclassification.
        """
        payload = bytes(range(64))
        requests = []
        sequence = 0
        for window in range(2):
            for slot in range(8):
                requests.append(Request(
                    arrival=window * 100 + slot * 10, tenant="t0",
                    sequence=sequence, address=slot, op=Op.WRITE,
                    data=payload))
                sequence += 1
        for window in (2, 3):
            requests.append(Request(arrival=window * 100, tenant="t0",
                                    sequence=sequence, address=0,
                                    op=Op.READ))
            sequence += 1
        requests.append(Request(arrival=450, tenant="t0",
                                sequence=sequence, address=1, op=Op.READ))
        return requests

    def _run(self):
        morph = MorphController(frozenset({"t0"}), high_watermark=8,
                                low_watermark=2, sustain=2)
        plane = ServeControlPlane(100, morph=morph)
        protocol = _StubProtocol()
        scheduler = BatchingScheduler(protocol, queue_capacity=32,
                                      batch_size=1, control=plane)
        outcome = scheduler.run(self._requests())
        return protocol, plane, outcome

    def test_morphed_tenant_bypasses_the_protocol(self):
        protocol, _, outcome = self._run()
        assert outcome.plain_accesses > 0
        modes = [d for d in outcome.decisions if d.controller == "morph"]
        assert [d.after["mode"] for d in modes if d.applied] == \
            ["morphed", "secure"]

    def test_reclassification_replays_dirty_blocks(self):
        protocol, plane, outcome = self._run()
        # every address written while morphed came back under ORAM as a
        # real write carrying the overlay bytes
        replayed = {address for address, op, data in protocol.calls
                    if op is Op.WRITE and data == bytes(range(64))}
        assert replayed == set(range(8))
        assert plane.dirty == {}

    def test_morphed_read_after_reclassify_sees_written_bytes(self):
        morph = MorphController(frozenset({"t0"}), high_watermark=8,
                                low_watermark=2, sustain=2)
        plane = ServeControlPlane(100, morph=morph)
        scheduler = BatchingScheduler(_StubProtocol(), queue_capacity=32,
                                      batch_size=1, control=plane,
                                      keep_read_bytes=True)
        outcome = scheduler.run(self._requests())
        reads = {key: data for key, data in outcome.read_bytes.items()}
        # the window-2 read of address 0 is served from the overlay and
        # must see the bytes the morphed-era write stored there
        assert reads[("t0", 16)] == bytes(range(64))

    def test_control_overhead_is_charged(self):
        _, plane, outcome = self._run()
        assert outcome.control_payload["overhead_ticks"] == \
            plane.overhead_ticks
        assert plane.overhead_ticks > 0


class TestShardedAdaptive:
    def spec(self, **overrides):
        base = dict(design="independent", levels=6, rate=0.05, requests=96,
                    capacity=8, batch=4, shards=2, subtrees=8,
                    migration_capacity=4, migration_drain=0.2, seed=7,
                    adapt=True, window_ticks=256, slo_p99=512)
        base.update(overrides)
        return ServeSpec(**base)

    def test_sharded_adaptive_identical_across_jobs(self):
        spec = self.spec()
        assert canonical_json(sweep_reports([spec], jobs=1)) == \
            canonical_json(sweep_reports([spec], jobs=2))

    def test_aggregate_control_section_folds_shards(self):
        [report] = sweep_reports([self.spec()])
        control = report["control"]
        assert control is not None
        per_shard = [shard["control"] for shard in report["shards"]]
        assert control["decisions"] == sum(
            len(entry["decisions"]) for entry in per_shard) + \
            len(report["migration"]["control"]["decisions"])
        assert report["metrics"]["counters"]["control/decisions"] == \
            control["decisions"]

    def test_migration_controller_retargets_drain(self):
        [report] = sweep_reports([self.spec()])
        migration = report["migration"]
        assert migration["control"]["window_ticks"] == 256
        assert migration["measured_utilization"] is not None
        assert migration["model"]["mm1k_overflow_at_measured"] is not None
        finals = migration["control"]["final"]
        for index in range(2):
            probability = finals[str(index)]
            assert 0.0 <= probability <= 1.0
            assert migration["per_shard"][str(index)][
                "drain_probability"] == probability

    def test_open_loop_sharded_has_no_control_sections(self):
        [report] = sweep_reports([self.spec(adapt=False)])
        assert report["control"] is None
        assert "control" not in report["migration"]


class TestAdaptiveAudit:
    def test_adaptive_control_is_indistinguishable(self):
        result = audit_adaptive_control()
        assert result.passed, result.describe()

    def test_tainted_signal_is_caught(self):
        result = audit_adaptive_control(taint_signal=True)
        assert not result.passed
        assert result.first_divergence is not None

    def test_secret_arg_on_the_link_is_caught(self, monkeypatch):
        # the audit screens its runs' link: a leaf= instant planted on
        # the protocol's link lane must turn the verdict into a FAIL
        from repro.core import designs

        build = designs.build_protocol

        def planted(*args, tracer=NULL_TRACER, **kwargs):
            protocol = build(*args, tracer=tracer, **kwargs)
            tracer.instant("ACCESS", CATEGORY_LINK, protocol.link.lane, 0,
                           leaf=1)
            return protocol

        monkeypatch.setattr(designs, "build_protocol", planted)
        result = audit_adaptive_control()
        assert not result.passed
        assert "secret-tainted payloads" in result.describe()

    def test_full_audit_includes_both_directions(self):
        results = {result.name: result for result in run_full_audit()}
        assert results["control:adaptive"].passed
        negative = results[
            "negative-control:control:adaptive+tainted-signal"]
        assert not negative.passed
