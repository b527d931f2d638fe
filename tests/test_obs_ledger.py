"""The performance ledger: records, digests, the file, and the
byte-identity of ``sweep --ledger`` across ``--jobs`` and replays."""

import json

from repro.cli import main
from repro.config import DesignPoint, small_config
from repro.obs.ledger import (LEDGER_DISABLE_ENV, LEDGER_ENV, LEDGER_SCHEMA,
                              Ledger, canonical_core_line, config_digest_hex,
                              make_record, resolve_ledger, simulation_core,
                              verify_record)
from repro.sim.system import run_simulation


def _small_run():
    config = small_config(DesignPoint.INDEP_2)
    return config, run_simulation(config, "mcf", trace_length=200)


class TestRecords:
    def test_record_shape_and_digest(self):
        record = make_record("test", {"point": {"a": 1}, "measure": {}},
                             wall_ms=12.3456, jobs=2, from_cache=False)
        assert record["schema"] == LEDGER_SCHEMA
        assert verify_record(record)
        assert record["host"]["wall_ms"] == 12.346
        assert record["host"]["jobs"] == 2
        assert record["host"]["from_cache"] is False
        # provenance names the measuring machine
        for key in ("cpu_count", "python", "platform"):
            assert key in record["host"]

    def test_tampered_core_fails_verification(self):
        record = make_record("test", {"point": {"a": 1},
                                      "measure": {"cycles": 10}})
        record["core"]["measure"]["cycles"] = 11
        assert not verify_record(record)

    def test_host_section_is_outside_the_digest(self):
        first = make_record("test", {"point": {"a": 1}}, wall_ms=1.0)
        second = make_record("test", {"point": {"a": 1}}, wall_ms=99.0)
        assert first["core_digest"] == second["core_digest"]
        assert canonical_core_line(first) == canonical_core_line(second)
        assert "wall_ms" not in canonical_core_line(first)

    def test_simulation_core_measures_the_run(self):
        config, result = _small_run()
        core = simulation_core("indep-2", "mcf", result,
                               config_digest_hex(config), trace_length=200)
        measure = core["measure"]
        assert measure["execution_cycles"] == result.execution_cycles
        assert measure["miss_count"] == result.miss_count
        assert measure["slo"]["count"] == result.miss_latency.count
        assert core["point"]["design"] == "indep-2"
        assert len(core["config_digest"]) == 64
        # the hit rate sits inside the digest-protected measure, so a
        # silent loss of fast-path coverage changes the pinned measure
        assert measure["fastpath_hit_rate"] == \
            result.extras.get("fastpath_hit_rate", 0.0)
        assert 0.0 <= measure["fastpath_hit_rate"] <= 1.0
        # the core is replay-stable: same run, same bytes
        again = simulation_core("indep-2", "mcf", result,
                                config_digest_hex(config),
                                trace_length=200,
                                fingerprint=core["fingerprint"])
        assert json.dumps(core, sort_keys=True) == \
            json.dumps(again, sort_keys=True)


class TestLedgerFile:
    def test_append_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        ledger = Ledger(path)
        records = [make_record("test", {"point": {"i": i}})
                   for i in range(3)]
        ledger.append_all(records)
        back = ledger.read()
        assert [r["core"]["point"]["i"] for r in back] == [0, 1, 2]
        assert ledger.skipped_lines == 0

    def test_corrupt_and_tampered_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        ledger = Ledger(path)
        ledger.append(make_record("test", {"point": {"i": 0}}))
        tampered = make_record("test", {"point": {"i": 1}})
        tampered["core"]["point"]["i"] = 99
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{not json\n")
            handle.write(json.dumps(tampered) + "\n")
        back = ledger.read()
        assert len(back) == 1
        assert ledger.skipped_lines == 2

    def test_missing_file_reads_empty(self, tmp_path):
        ledger = Ledger(str(tmp_path / "absent.jsonl"))
        assert ledger.read() == []

    def test_canonical_dump_is_host_free(self, tmp_path):
        ledger = Ledger(str(tmp_path / "ledger.jsonl"))
        ledger.append(make_record("test", {"point": {"i": 0}},
                                  wall_ms=123.0))
        dump = ledger.canonical_dump()
        assert "wall_ms" not in dump
        assert dump.endswith("\n")
        # dumps from records with different host sections are identical
        other = Ledger(str(tmp_path / "other.jsonl"))
        other.append(make_record("test", {"point": {"i": 0}},
                                 wall_ms=9999.0, jobs=8))
        assert other.canonical_dump() == dump


class TestResolveLedger:
    def test_explicit_path_wins(self, tmp_path, monkeypatch):
        monkeypatch.delenv(LEDGER_DISABLE_ENV, raising=False)
        monkeypatch.setenv(LEDGER_ENV, str(tmp_path / "env.jsonl"))
        ledger = resolve_ledger(str(tmp_path / "explicit.jsonl"))
        assert ledger is not None
        assert ledger.path.endswith("explicit.jsonl")

    def test_env_fallback_and_disable(self, tmp_path, monkeypatch):
        monkeypatch.setenv(LEDGER_ENV, str(tmp_path / "env.jsonl"))
        monkeypatch.delenv(LEDGER_DISABLE_ENV, raising=False)
        assert resolve_ledger().path.endswith("env.jsonl")
        monkeypatch.setenv(LEDGER_DISABLE_ENV, "1")
        assert resolve_ledger() is None

    def test_explicit_path_overrides_disable_env(self, tmp_path,
                                                 monkeypatch, capsys):
        """An explicit ``--ledger FILE`` beats ambient REPRO_NO_LEDGER.

        The env var is a blanket default for *implicit* ledger
        resolution; a user naming a file on the command line asked for
        that file.  The override is announced on stderr so the ambient
        setting is not silently ignored.
        """
        monkeypatch.delenv(LEDGER_ENV, raising=False)
        monkeypatch.setenv(LEDGER_DISABLE_ENV, "1")
        ledger = resolve_ledger(str(tmp_path / "x.jsonl"))
        assert ledger is not None
        assert ledger.path.endswith("x.jsonl")
        captured = capsys.readouterr()
        assert LEDGER_DISABLE_ENV in captured.err
        assert "overrides" in captured.err

    def test_no_warning_without_disable_env(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.delenv(LEDGER_ENV, raising=False)
        monkeypatch.delenv(LEDGER_DISABLE_ENV, raising=False)
        assert resolve_ledger(str(tmp_path / "y.jsonl")) is not None
        assert capsys.readouterr().err == ""

    def test_nothing_configured_is_none(self, monkeypatch):
        monkeypatch.delenv(LEDGER_ENV, raising=False)
        monkeypatch.delenv(LEDGER_DISABLE_ENV, raising=False)
        assert resolve_ledger() is None


class TestByteIdentity:
    """The determinism contract of the ledger: canonical dumps are
    byte-identical across --jobs and replays."""

    def test_sweep_ledger_canonical_dump_jobs_and_replay(self, tmp_path,
                                                         capsys):
        cache = str(tmp_path / "cache")
        dumps = []
        for index, jobs in enumerate(("1", "4", "1")):   # 3rd = replay
            ledger_path = str(tmp_path / f"ledger{index}.jsonl")
            code = main(["sweep", "freecursive", "--trace-length", "300",
                         "--jobs", jobs, "--cache-dir", cache,
                         "--ledger", ledger_path])
            assert code == 0
            dumps.append(Ledger(ledger_path).canonical_dump())
        capsys.readouterr()
        assert dumps[0] == dumps[1] == dumps[2]
        assert dumps[0]                       # non-empty: records exist
        assert "wall_ms" not in dumps[0]
