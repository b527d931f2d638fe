"""The persistent run cache: hits, misses, corruption, invalidation, and
the one cache key :func:`repro.parallel.pool.fanout` builds."""

import glob
import json
import os
import re

import pytest

from repro.config import DesignPoint, small_config
from repro.parallel import fingerprint as fingerprint_module
from repro.parallel.cache import (CACHE_DIR_ENV, DEFAULT_CACHE_DIRNAME,
                                  RunCache, default_cache_dir)
from repro.parallel.pool import fanout
from repro.parallel.serialize import run_result_from_dict, run_result_to_dict
from repro.oram.integrity import IntegrityError
from repro.parallel.sweep import SweepPoint, execute_point, run_sweep
from repro.sim.stats import failure_record_from_exception

CONFIG = small_config(DesignPoint.FREECURSIVE)
POINT = SweepPoint(DesignPoint.FREECURSIVE, "mcf", trace_length=200,
                   config=CONFIG)


@pytest.fixture(scope="module")
def payload():
    return execute_point(POINT)


@pytest.fixture
def cache(tmp_path):
    return RunCache(str(tmp_path / "runs"))


def _empty_payload(_task):
    return {}


def distinct_keys(cache, tasks, key=SweepPoint.cache_request):
    """How many cache entries ``fanout`` writes for ``tasks``: one per
    distinct key (every task is looked up before any runs)."""
    fanout(tasks, _empty_payload, jobs=1, cache=cache, key=key)
    return cache.entry_count()


class TestRoundTrip:
    def test_hit_returns_equal_result(self, cache, payload):
        cache.put_json("ab" * 32, payload, fingerprint="f1")
        entry = cache.get_json("ab" * 32)
        assert entry == payload
        assert run_result_to_dict(run_result_from_dict(entry)) == payload
        assert cache.stats.hits == 1
        assert cache.stats.writes == 1

    def test_failure_records_round_trip(self, payload):
        result = run_result_from_dict(payload)
        assert result.completed_clean
        result.failures.append(failure_record_from_exception(
            IntegrityError("stale bucket", index=5, expected_counter=9,
                           kind="mac")))
        restored = run_result_from_dict(run_result_to_dict(result))
        assert not restored.completed_clean
        assert restored.failures == result.failures
        record = restored.failures[0]
        assert (record["kind"], record["fault_kind"], record["index"],
                record["expected_counter"]) == ("IntegrityError", "mac", 5, 9)
        assert "stale bucket" in record["detail"]

    def test_traced_point_entry_holds_only_the_result(self, tmp_path):
        # a traced, windowed point caches its RunResult and nothing else:
        # the phase breakdown and windows ride inside it
        traced = SweepPoint(DesignPoint.FREECURSIVE, "mcf", trace_length=200,
                            collect_trace=True, window_cycles=1000,
                            config=CONFIG)
        cache = RunCache(str(tmp_path / "runs"))
        (entry,) = run_sweep([traced], cache=cache).results
        (path,) = glob.glob(os.path.join(cache.directory, "*", "*.json"))
        with open(path) as handle:
            stored = json.load(handle)["payload"]
        assert stored == run_result_to_dict(entry.result)
        assert stored["phase_cycles"] and stored["windows"]

    def test_unknown_key_is_a_miss(self, cache):
        assert cache.get_json("00" * 32) is None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0


class TestKeying:
    """The key is fanout's digest of the request, the code and the core."""

    def test_fingerprint_is_part_of_the_key(self, cache, monkeypatch):
        monkeypatch.setattr(fingerprint_module, "_cached_fingerprint",
                            "old")
        assert distinct_keys(cache, [POINT]) == 1
        monkeypatch.setattr(fingerprint_module, "_cached_fingerprint",
                            "new")
        assert distinct_keys(cache, [POINT]) == 2

    def test_request_parameters_change_the_key(self, cache):
        variants = [POINT,
                    SweepPoint(DesignPoint.FREECURSIVE, "lbm",
                               trace_length=200, config=CONFIG),
                    SweepPoint(DesignPoint.FREECURSIVE, "mcf",
                               trace_length=201, config=CONFIG),
                    SweepPoint(DesignPoint.FREECURSIVE, "mcf",
                               trace_length=200, seed=3, config=CONFIG),
                    SweepPoint(DesignPoint.FREECURSIVE, "mcf",
                               trace_length=200, collect_trace=True,
                               config=CONFIG)]
        assert distinct_keys(cache, variants) == len(variants)

    def test_config_contents_change_the_key(self, cache):
        other = SweepPoint(DesignPoint.FREECURSIVE, "mcf", trace_length=200,
                           config=small_config(DesignPoint.FREECURSIVE,
                                               seed=99))
        assert distinct_keys(cache, [POINT, other]) == 2

    def test_same_request_same_key(self, cache):
        twin = SweepPoint(DesignPoint.FREECURSIVE, "mcf", trace_length=200,
                          config=small_config(DesignPoint.FREECURSIVE))
        assert distinct_keys(cache, [POINT, twin]) == 1

    def test_code_change_turns_a_warm_sweep_point_into_a_miss(
            self, cache, monkeypatch):
        assert not run_sweep([POINT], cache=cache).results[0].from_cache
        assert run_sweep([POINT], cache=cache).results[0].from_cache
        monkeypatch.setattr(fingerprint_module, "_cached_fingerprint",
                            "0" * 64)
        assert not run_sweep([POINT], cache=cache).results[0].from_cache
        assert cache.entry_count() == 2


class TestCorruption:
    def put_one(self, cache, payload):
        key = "cd" * 32
        return key, cache.put_json(key, payload, fingerprint="f1")

    def test_garbage_file_becomes_miss_and_is_deleted(self, cache, payload):
        key, path = self.put_one(cache, payload)
        with open(path, "w") as handle:
            handle.write("not json {{{")
        assert cache.get_json(key) is None
        assert cache.stats.corruptions == 1
        assert cache.stats.misses == 1
        assert not os.path.exists(path)

    def test_tampered_payload_fails_digest_check(self, cache, payload):
        key, path = self.put_one(cache, payload)
        with open(path) as handle:
            entry = json.load(handle)
        entry["payload"]["execution_cycles"] += 1
        with open(path, "w") as handle:
            json.dump(entry, handle)
        assert cache.get_json(key) is None
        assert cache.stats.corruptions == 1
        assert not os.path.exists(path)

    def test_wrong_schema_rejected(self, cache, payload):
        key, path = self.put_one(cache, payload)
        with open(path) as handle:
            entry = json.load(handle)
        entry["schema"] = 999
        with open(path, "w") as handle:
            json.dump(entry, handle)
        assert cache.get_json(key) is None
        assert cache.stats.corruptions == 1

    def test_entry_under_another_key_rejected(self, cache, payload):
        key, path = self.put_one(cache, payload)
        with open(path) as handle:
            entry = json.load(handle)
        entry["key"] = "ef" * 32
        with open(path, "w") as handle:
            json.dump(entry, handle)
        assert cache.get_json(key) is None
        assert cache.stats.corruptions == 1
        assert not os.path.exists(path)

    def test_non_object_entry_becomes_miss(self, cache, payload):
        key, path = self.put_one(cache, payload)
        with open(path, "w") as handle:
            handle.write("[]")
        assert cache.disk_stats("f1")["unreadable"] == 1
        assert cache.get_json(key) is None
        assert cache.stats.corruptions == 1
        assert not os.path.exists(path)

    def test_heals_after_rewrite(self, cache, payload):
        key, path = self.put_one(cache, payload)
        with open(path, "w") as handle:
            handle.write("garbage")
        assert cache.get_json(key) is None
        cache.put_json(key, payload, fingerprint="f1")
        assert cache.get_json(key) == payload


class TestInvalidation:
    def test_prune_stale_removes_old_fingerprints(self, cache, payload):
        cache.put_json("01" * 32, payload, fingerprint="old")
        cache.put_json("02" * 32, payload, fingerprint="new")
        assert cache.entry_count() == 2
        assert cache.prune_stale("new") == 1
        assert cache.entry_count() == 1
        assert cache.get_json("02" * 32) is not None

    def test_prune_on_missing_directory_is_noop(self, tmp_path):
        cache = RunCache(str(tmp_path / "never-created"))
        assert cache.prune_stale("f") == 0
        assert cache.entry_count() == 0


class TestDefaultDirectory:
    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, "/somewhere/else")
        assert default_cache_dir("/anchor") == "/somewhere/else"

    def test_anchor_used_without_env(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert (default_cache_dir("/anchor") ==
                os.path.join("/anchor", DEFAULT_CACHE_DIRNAME))


class TestDiskStats:
    def test_counts_entries_stale_and_bytes(self, cache, payload):
        keep_path = cache.put_json("01" * 32, payload, fingerprint="cur")
        drop_path = cache.put_json("02" * 32, payload, fingerprint="old")
        stats = cache.disk_stats(fingerprint="cur")
        assert stats["entries"] == 2
        assert stats["stale"] == 1
        assert stats["unreadable"] == 0
        assert stats["bytes"] == (os.path.getsize(keep_path)
                                  + os.path.getsize(drop_path))

    def test_unreadable_entry_counts_as_stale(self, cache, payload):
        path = cache.put_json("01" * 32, payload, fingerprint="cur")
        with open(path, "w") as handle:
            handle.write("not json")
        stats = cache.disk_stats(fingerprint="cur")
        assert stats == {"entries": 1, "stale": 1, "unreadable": 1,
                         "bytes": os.path.getsize(path)}

    def test_missing_directory_is_empty(self, tmp_path):
        cache = RunCache(str(tmp_path / "never-created"))
        assert cache.disk_stats("f") == {"entries": 0, "stale": 0,
                                         "unreadable": 0, "bytes": 0}


class TestCacheCli:
    """The ``cache stats`` / ``cache prune`` CLI verbs."""

    @pytest.fixture
    def populated(self, tmp_path, payload, monkeypatch):
        # The CLI uses the real code fingerprint, so plant one entry
        # under it (put_json's default) and one under a stale one.
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        directory = str(tmp_path / "cli-cache")
        cache = RunCache(directory)
        cache.put_json("01" * 32, payload)
        cache.put_json("02" * 32, payload, fingerprint="0" * 64)
        return directory

    def test_stats_reports_counts(self, populated, capsys):
        from repro.cli import main
        assert main(["cache", "stats", "--cache-dir", populated]) == 0
        out = capsys.readouterr().out
        assert re.search(r"entries:\s+2", out)
        assert re.search(r"stale:\s+1", out)
        assert populated in out

    def test_prune_removes_only_stale_entries(self, populated, capsys):
        from repro.cli import main
        assert main(["cache", "prune", "--cache-dir", populated]) == 0
        out = capsys.readouterr().out
        assert "removed 1 stale entr" in out
        assert RunCache(populated).entry_count() == 1
        assert main(["cache", "stats", "--cache-dir", populated]) == 0
        assert re.search(r"stale:\s+0", capsys.readouterr().out)

    def test_env_var_supplies_default_directory(self, populated, capsys,
                                                monkeypatch):
        from repro.cli import main
        monkeypatch.setenv(CACHE_DIR_ENV, populated)
        assert main(["cache", "stats"]) == 0
        assert re.search(r"entries:\s+2", capsys.readouterr().out)
