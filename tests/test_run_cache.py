"""The persistent run cache: hits, misses, corruption, invalidation."""

import json
import os
import re

import pytest

from repro.config import DesignPoint, small_config
from repro.parallel.cache import (CACHE_DIR_ENV, DEFAULT_CACHE_DIRNAME,
                                  RunCache, default_cache_dir)
from repro.parallel.serialize import run_result_to_dict
from repro.sim.system import run_simulation

CONFIG = small_config(DesignPoint.FREECURSIVE)


@pytest.fixture(scope="module")
def result():
    return run_simulation(CONFIG, "mcf", trace_length=200)


@pytest.fixture
def cache(tmp_path):
    return RunCache(str(tmp_path / "runs"))


class TestRoundTrip:
    def test_hit_returns_equal_result(self, cache, result):
        key = cache.key_for(CONFIG, "mcf", 200, fingerprint="f1")
        cache.put(key, result, fingerprint="f1")
        entry = cache.get(key)
        assert entry is not None
        assert run_result_to_dict(entry.result) == run_result_to_dict(result)
        assert cache.stats.hits == 1
        assert cache.stats.writes == 1

    def test_chrome_json_round_trips(self, cache, result):
        key = cache.key_for(CONFIG, "mcf", 200, fingerprint="f1")
        cache.put(key, result, chrome_json='{"traceEvents":[]}',
                  fingerprint="f1")
        entry = cache.get(key)
        assert entry.chrome_json == '{"traceEvents":[]}'

    def test_unknown_key_is_a_miss(self, cache):
        assert cache.get("00" * 32) is None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0


class TestKeying:
    def test_fingerprint_is_part_of_the_key(self, cache):
        old = cache.key_for(CONFIG, "mcf", 200, fingerprint="old")
        new = cache.key_for(CONFIG, "mcf", 200, fingerprint="new")
        assert old != new

    def test_request_parameters_change_the_key(self, cache):
        base = cache.key_for(CONFIG, "mcf", 200, fingerprint="f")
        assert base != cache.key_for(CONFIG, "lbm", 200, fingerprint="f")
        assert base != cache.key_for(CONFIG, "mcf", 201, fingerprint="f")
        assert base != cache.key_for(CONFIG, "mcf", 200, trace_seed=3,
                                     fingerprint="f")
        assert base != cache.key_for(CONFIG, "mcf", 200, collect_trace=True,
                                     fingerprint="f")

    def test_config_contents_change_the_key(self, cache):
        other = small_config(DesignPoint.FREECURSIVE, seed=99)
        assert (cache.key_for(CONFIG, "mcf", 200, fingerprint="f") !=
                cache.key_for(other, "mcf", 200, fingerprint="f"))

    def test_same_request_same_key(self, cache):
        assert (cache.key_for(CONFIG, "mcf", 200, fingerprint="f") ==
                cache.key_for(CONFIG, "mcf", 200, fingerprint="f"))


class TestCorruption:
    def put_one(self, cache, result):
        key = cache.key_for(CONFIG, "mcf", 200, fingerprint="f1")
        path = cache.put(key, result, fingerprint="f1")
        return key, path

    def test_garbage_file_becomes_miss_and_is_deleted(self, cache, result):
        key, path = self.put_one(cache, result)
        with open(path, "w") as handle:
            handle.write("not json {{{")
        assert cache.get(key) is None
        assert cache.stats.corruptions == 1
        assert cache.stats.misses == 1
        assert not os.path.exists(path)

    def test_tampered_payload_fails_digest_check(self, cache, result):
        key, path = self.put_one(cache, result)
        with open(path) as handle:
            entry = json.load(handle)
        entry["result"]["execution_cycles"] += 1
        with open(path, "w") as handle:
            json.dump(entry, handle)
        assert cache.get(key) is None
        assert cache.stats.corruptions == 1
        assert not os.path.exists(path)

    def test_wrong_schema_rejected(self, cache, result):
        key, path = self.put_one(cache, result)
        with open(path) as handle:
            entry = json.load(handle)
        entry["schema"] = 999
        with open(path, "w") as handle:
            json.dump(entry, handle)
        assert cache.get(key) is None
        assert cache.stats.corruptions == 1

    def test_heals_after_rewrite(self, cache, result):
        key, path = self.put_one(cache, result)
        with open(path, "w") as handle:
            handle.write("garbage")
        assert cache.get(key) is None
        cache.put(key, result, fingerprint="f1")
        assert cache.get(key) is not None


class TestInvalidation:
    def test_prune_stale_removes_old_fingerprints(self, cache, result):
        old_key = cache.key_for(CONFIG, "mcf", 200, fingerprint="old")
        new_key = cache.key_for(CONFIG, "mcf", 200, fingerprint="new")
        cache.put(old_key, result, fingerprint="old")
        cache.put(new_key, result, fingerprint="new")
        assert cache.entry_count() == 2
        assert cache.prune_stale("new") == 1
        assert cache.entry_count() == 1
        assert cache.get(new_key) is not None

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
    def test_counts_entries_stale_and_bytes(self, cache, result):
        keep = cache.key_for(CONFIG, "mcf", 200, fingerprint="cur")
        drop = cache.key_for(CONFIG, "lbm", 200, fingerprint="old")
        keep_path = cache.put(keep, result, fingerprint="cur")
        drop_path = cache.put(drop, result, fingerprint="old")
        stats = cache.disk_stats(fingerprint="cur")
        assert stats["entries"] == 2
        assert stats["stale"] == 1
        assert stats["unreadable"] == 0
        assert stats["bytes"] == (os.path.getsize(keep_path)
                                  + os.path.getsize(drop_path))

    def test_unreadable_entry_counts_as_stale(self, cache, result):
        key = cache.key_for(CONFIG, "mcf", 200, fingerprint="cur")
        path = cache.put(key, result, fingerprint="cur")
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
    def populated(self, tmp_path, result, monkeypatch):
        # The CLI uses the real code fingerprint, so plant one entry
        # under it and one under a fabricated stale fingerprint.
        from repro.parallel.fingerprint import code_fingerprint
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        directory = str(tmp_path / "cli-cache")
        cache = RunCache(directory)
        current = code_fingerprint()
        cache.put(cache.key_for(CONFIG, "mcf", 200, fingerprint=current),
                  result, fingerprint=current)
        cache.put(cache.key_for(CONFIG, "lbm", 200, fingerprint="0" * 64),
                  result, fingerprint="0" * 64)
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
