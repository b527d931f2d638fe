"""The sharded serving tier end to end: determinism, folding, the CLI.

The ISSUE-level guarantee mirrors the sweep engine's: the aggregate
sharded report is **byte-identical** for any ``--jobs`` value, across
warm and cold pools, and across cached replays — and the per-shard
fan-out folds into sections :func:`repro.obs.ledger.serve_core` can
consume unchanged.
"""

import json

import pytest

import repro.parallel.pool as pool_module
from repro.cli import main
from repro.parallel.cache import RunCache
from repro.serve.bench import (ServeSpec, run_serve, run_serve_sweep,
                               serve_request)
from repro.serve.router import fold_shard_reports
from repro.serve.shard import run_shard
from repro.serve.slo import canonical_json

SMALL = dict(design="independent", levels=6, requests=96, capacity=16,
             batch=4, rate=0.02, seed=2018, shards=2, subtrees=8)


def spec(**overrides):
    merged = dict(SMALL)
    merged.update(overrides)
    return ServeSpec(**merged)


def run_point(point, jobs=1):
    [(report, _)] = run_serve_sweep([point], jobs=jobs)
    return report


class TestDeterminism:
    def test_parallel_is_byte_identical_to_serial(self):
        pool_module.shutdown_pools()
        point = spec(shards=4, subtrees=16)
        serial = canonical_json(run_point(point, jobs=1))
        parallel = canonical_json(run_point(point, jobs=4))
        assert parallel == serial
        # and again on the now-warm pool
        warm = canonical_json(run_point(point, jobs=4))
        assert warm == serial
        pool_module.shutdown_pools()

    def test_cached_replay_is_byte_identical(self, tmp_path):
        cache = RunCache(str(tmp_path / "runs"))
        point = spec()
        [(fresh, cold)] = run_serve_sweep([point], jobs=2, cache=cache)
        [(replay, warm)] = run_serve_sweep([point], jobs=1, cache=cache)
        assert canonical_json(fresh) == canonical_json(replay)
        assert (cold["from_cache"], warm["from_cache"]) == (False, True)
        pool_module.shutdown_pools()

    def test_cache_key_depends_on_shard_geometry(self, tmp_path):
        cache = RunCache(str(tmp_path / "runs"))
        variants = [spec(), spec(shards=4, subtrees=16),
                    spec(quarantined=(0,)), spec(shards=1)]
        pool_module.fanout(variants, lambda _: {}, jobs=1, cache=cache,
                           key=serve_request)
        assert cache.entry_count() == len(variants)

    def test_sweep_point_is_the_folded_shards(self):
        point = spec()
        folded = fold_shard_reports(
            point, [(shard, run_shard(point, shard))
                    for shard in range(point.shards)])
        assert canonical_json(run_point(point)) == canonical_json(folded)

    def test_mixed_sweep_keeps_order_and_single_server_bytes(self):
        single = spec(shards=1)
        reports = [report for report, _ in
                   run_serve_sweep([single, spec()], jobs=2)]
        pool_module.shutdown_pools()
        assert canonical_json(reports[0]) == canonical_json(run_serve(single))
        assert reports[1]["spec"]["shards"] == 2

    def test_sweep_preserves_submission_order(self):
        points = [spec(rate=0.01), spec(rate=0.03)]
        reports = [report for report, _ in run_serve_sweep(points, jobs=1)]
        assert [report["spec"]["rate"] for report in reports] == \
            [0.01, 0.03]


class TestFolding:
    def test_totals_are_the_shard_sums(self):
        point = spec()
        report = run_point(point, jobs=1)
        assert len(report["shards"]) == point.shards
        for key in ("offered", "admitted", "completed", "shed",
                    "accesses"):
            assert report["totals"][key] == sum(
                shard["totals"][key] for shard in report["shards"])
        assert report["totals"]["offered"] == point.requests

    def test_fold_is_insensitive_to_payload_arrival_order(self):
        point = spec()
        payloads = [(shard, run_shard(point, shard))
                    for shard in range(point.shards)]
        forward = fold_shard_reports(point, payloads)
        reversed_ = fold_shard_reports(point, list(reversed(payloads)))
        assert canonical_json(forward) == canonical_json(reversed_)

    def test_aggregate_sojourn_covers_all_completions(self):
        report = run_point(spec(), jobs=1)
        assert report["sojourn"]["aggregate"]["count"] == \
            report["totals"]["completed"]

    def test_plan_section_names_every_subtree(self):
        point = spec(shards=4, subtrees=16)
        report = run_point(point, jobs=1)
        assert len(report["plan"]["assignments"]) == point.subtrees
        assert sum(report["plan"]["shares"]) == pytest.approx(1.0)

    def test_serve_core_consumes_shard_and_aggregate_reports(self):
        from repro.obs.ledger import serve_core

        report = run_point(spec(), jobs=1)
        aggregate = serve_core(report, fingerprint="f" * 64)
        assert aggregate["measure"]["totals"] == report["totals"]
        assert aggregate["measure"]["utilization"] == \
            report["service"]["utilization"]
        for shard_report in report["shards"]:
            core = serve_core(shard_report, fingerprint="f" * 64)
            assert core["measure"]["slo"]["count"] == \
                shard_report["totals"]["completed"]

    def test_metrics_fold_across_shards(self):
        point = spec(shards=4, subtrees=16)
        report = run_point(point, jobs=1)
        counters = report["metrics"]["counters"]
        assert counters["shard/routed"] == point.requests


class TestQuarantine:
    def test_degraded_mode_is_reported_honestly(self):
        point = spec(quarantined=(1,))
        report = run_point(point, jobs=2)
        pool_module.shutdown_pools()
        degraded = report["degraded"]
        assert degraded["quarantined"] == [1]
        assert degraded["degraded_shards"] == 1
        assert degraded["degraded_accesses"] == \
            report["shards"][1]["totals"]["accesses"] > 0
        # degraded traffic still completes and stays depth-bounded
        assert report["queue"]["depth_bounded"] is True
        assert report["totals"]["completed"] == report["totals"]["admitted"]

    def test_quarantine_changes_data_not_shape(self):
        healthy = run_point(spec(), jobs=1)
        sick = run_point(spec(quarantined=(0,)), jobs=1)
        assert healthy["totals"]["accesses"] == sick["totals"]["accesses"]
        assert healthy["service"]["busy_ticks"] == \
            sick["service"]["busy_ticks"]


class TestCli:
    ARGS = ["serve-bench", "--design", "independent",
            "--rates", "0.02", "--requests", "96",
            "--levels", "6", "--capacity", "16", "--batch", "4",
            "--shards", "2", "--subtrees", "8", "--no-cache"]

    def test_report_bytes_identical_across_jobs(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(self.ARGS + ["--jobs", "1",
                                 "--report", str(first)]) == 0
        assert main(self.ARGS + ["--jobs", "2",
                                 "--report", str(second)]) == 0
        pool_module.shutdown_pools()
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        payload = json.loads(first.read_text())
        assert len(payload) == 1
        assert payload[0]["spec"]["shards"] == 2

    def test_table_and_migration_lines_render(self, capsys):
        assert main(self.ARGS) == 0
        output = capsys.readouterr().out
        assert "per shard" in output
        assert "migration:" in output

    def test_quarantine_flag_reaches_the_report(self, capsys):
        assert main(self.ARGS + ["--quarantine-shard", "1"]) == 0
        output = capsys.readouterr().out
        assert "degraded: shards [1] quarantined" in output

    def test_ledger_records_per_shard_and_aggregate(self, tmp_path,
                                                    capsys, monkeypatch):
        monkeypatch.delenv("REPRO_NO_LEDGER", raising=False)
        ledger_path = tmp_path / "ledger.jsonl"
        assert main(self.ARGS + ["--ledger", str(ledger_path)]) == 0
        capsys.readouterr()
        records = [json.loads(line)
                   for line in ledger_path.read_text().splitlines()]
        kinds = [record["kind"] for record in records]
        assert kinds.count("serve-shard") == 2
        assert kinds.count("serve-sharded") == 1
        aggregate = [record for record in records
                     if record["kind"] == "serve-sharded"][0]
        assert aggregate["core"]["point"]["shards"] == 2
        shard_ids = sorted(record["core"]["point"]["shard"]
                           for record in records
                           if record["kind"] == "serve-shard")
        assert shard_ids == [0, 1]

    def test_rejects_invalid_geometry(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.ARGS + ["--shards", "3"])
        assert excinfo.value.code == 2
        assert "shard count must be a power of two" in \
            capsys.readouterr().err
