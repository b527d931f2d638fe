"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.obs.ledger import Ledger

#: The host keys each ledger record kind carries.  Every record names
#: its machine; a fanned-out point adds its ``jobs`` and cache
#: provenance, and its time unless it is one shard of a timed point.
PROVENANCE = {"cpu_count", "python", "platform"}
HOST_KEYS = {
    "simulate": PROVENANCE | {"wall_ms"},
    "serve-shard": PROVENANCE | {"jobs", "from_cache"},
    **{kind: PROVENANCE | {"wall_ms", "jobs", "from_cache"}
       for kind in ("compare", "faults", "serve", "serve-sharded")},
}

SERVE_ARGS = ["serve-bench", "--rates", "0.02", "--requests", "96",
              "--levels", "6", "--capacity", "16", "--batch", "4"]


class TestParser:
    def test_designs_listed(self, capsys):
        assert main(["designs"]) == 0
        output = capsys.readouterr().out
        assert "indep-split" in output
        assert "freecursive" in output

    def test_workloads_listed(self, capsys):
        assert main(["workloads"]) == 0
        output = capsys.readouterr().out
        assert "gromacs" in output
        assert "MiB" in output

    def test_unknown_design_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "warp-drive", "mcf"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_parser_help_strings(self):
        parser = build_parser()
        assert parser.prog == "repro"


class TestCommands:
    def test_simulate(self, capsys):
        assert main(["simulate", "nonsecure", "gromacs",
                     "--trace-length", "800"]) == 0
        output = capsys.readouterr().out
        assert "execution cycles" in output
        assert "memory energy" in output

    def test_simulate_record_is_timed_only(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.delenv("REPRO_NO_LEDGER", raising=False)
        ledger = Ledger(str(tmp_path / "ledger.jsonl"))
        assert main(["simulate", "indep-2", "mcf", "--trace-length", "300",
                     "--ledger", ledger.path]) == 0
        capsys.readouterr()
        [record] = ledger.read()
        assert record["kind"] == "simulate"
        assert set(record["host"]) == HOST_KEYS["simulate"]
        assert record["core"]["point"]["trace_length"] == 300

    def test_compare_single_channel(self, capsys):
        assert main(["compare", "gromacs", "--trace-length", "600"]) == 0
        output = capsys.readouterr().out
        assert "freecursive" in output
        assert "indep-2" in output
        assert "split-2" in output

    def test_overflow(self, capsys):
        assert main(["overflow", "--steps", "5000"]) == 0
        output = capsys.readouterr().out
        assert "Figure 13a" in output
        assert "Figure 13b" in output

    def test_trace_generation(self, tmp_path, capsys):
        output_file = str(tmp_path / "trace.txt")
        assert main(["trace", "mcf", output_file, "--length", "50"]) == 0
        from repro.workloads.trace import load_trace
        assert len(load_trace(output_file)) == 50

    def test_simulate_trace_file(self, tmp_path, capsys):
        trace = str(tmp_path / "t.txt")
        assert main(["trace", "gromacs", trace, "--length", "400"]) == 0
        capsys.readouterr()
        assert main(["simulate", "freecursive", "--trace-file", trace]) == 0
        output = capsys.readouterr().out
        assert "execution cycles" in output
        # a replay ignores the positional workload and --trace-length, so
        # neither is checked against the profiles
        assert main(["simulate", "freecursive", "myapp", "--trace-length",
                     "0", "--trace-file", trace]) == 0
        assert capsys.readouterr().out == output

    def test_coresident(self, capsys):
        assert main(["coresident", "--requests", "30"]) == 0
        output = capsys.readouterr().out
        assert "freecursive" in output
        assert "vs idle" in output

    def test_simulate_json(self, capsys):
        import json

        assert main(["simulate", "nonsecure", "gromacs",
                     "--trace-length", "800", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["design"] == "nonsecure"
        assert summary["memory_energy_pj"] > 0


class TestFaultsCommand:
    ARGS = ["faults", "--design", "independent", "--accesses", "32",
            "--stuck-cells", "1", "--no-cache"]

    def test_campaign_detects_everything(self, capsys):
        assert main(self.ARGS) == 0
        output = capsys.readouterr().out
        assert "independent" in output
        assert "1.00" in output

    def test_json_reports(self, capsys):
        import json

        assert main(self.ARGS + ["--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 1
        assert reports[0]["all_detected"] is True

    def test_report_file_is_replay_stable(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(self.ARGS + ["--report", str(first)]) == 0
        assert main(self.ARGS + ["--report", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_seed_sweep_runs_each_seed(self, capsys):
        assert main(["faults", "--design", "split", "--accesses", "24",
                     "--seeds", "3", "5", "--no-cache"]) == 0
        output = capsys.readouterr().out
        assert output.count("split") == 2

    def test_ledger_records_cold_and_warm_runs(self, tmp_path, capsys,
                                               monkeypatch):
        """Every fanned-out verb, cold then warm against one cache: the
        same records in the same order with byte-identical cores; only
        the host provenance differs."""
        from repro.config import SINGLE_CHANNEL_DESIGNS

        monkeypatch.delenv("REPRO_NO_LEDGER", raising=False)
        # each verb's record kinds, one entry per record, in ledger order
        verbs = {
            "faults": (["faults", "--design", "independent", "--design",
                        "split", "--accesses", "16"], ["faults"] * 2),
            # NONSECURE and FREECURSIVE plus the single-channel designs
            "compare": (["compare", "mcf", "--trace-length", "300"],
                        ["compare"] * (2 + len(SINGLE_CHANNEL_DESIGNS))),
            "serve": (SERVE_ARGS, ["serve"]),
            "sharded": (SERVE_ARGS + ["--design", "independent",
                                      "--shards", "2", "--jobs", "2"],
                        ["serve-shard", "serve-shard", "serve-sharded"]),
        }
        for name, (args, kinds) in verbs.items():
            cold, warm = (Ledger(str(tmp_path / f"{name}-{run}.jsonl"))
                          for run in ("cold", "warm"))
            for ledger in (cold, warm):
                assert main(args + ["--cache-dir", str(tmp_path / "cache"),
                                    "--ledger", ledger.path]) == 0
            capsys.readouterr()
            assert cold.canonical_dump() == warm.canonical_dump(), name
            for ledger, cached in ((cold, False), (warm, True)):
                records = ledger.read()
                assert [record["kind"] for record in records] == kinds, name
                for record in records:
                    host = record["host"]
                    assert set(host) == HOST_KEYS[record["kind"]], name
                    assert host["from_cache"] is cached, name
                    if not cached and "wall_ms" in host:
                        assert host["wall_ms"] > 0, name

    def test_audit_trace_with_faults_flag_parses(self):
        args = build_parser().parse_args(["audit-trace", "--with-faults"])
        assert args.with_faults


class TestUsageErrors:
    @pytest.mark.parametrize("argv,flag", [
        (["simulate", "indep-2", "mcf", "--window-cycles", "-5"],
         "--window-cycles"),
        (["compare", "mcf", "--jobs", "-2"], "--jobs"),
        (["sweep", "indep-2", "--jobs", "0"], "--jobs"),
        (["faults", "--jobs", "0"], "--jobs"),
        (SERVE_ARGS + ["--jobs", "-1"], "--jobs"),
    ], ids=["window-cycles", "compare-jobs", "sweep-jobs", "faults-jobs",
            "serve-jobs"])
    def test_bad_count_is_a_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error" in line]
        assert errors == [err.splitlines()[-1]]
        assert errors[0].startswith(
            f"repro {argv[0]}: error: argument {flag}")
        assert "must be at least" in errors[0]
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,message", [
        (["simulate", "indep-2", "nosuch"], "unknown workload 'nosuch'"),
        (["simulate", "indep-2", "mcf", "--trace-length", "0"],
         "measurement window"),
        (["sweep", "indep-2", "--trace-length", "-5"],
         "measurement window"),
        (["simulate", "indep-split", "mcf", "--channels", "1"],
         "requires 4 SDIMMs"),
        (["simulate", "indep-2", "--trace-file", "no-such-dir/trace.txt"],
         "no trace file"),
        (["faults", "--accesses", "0"], "at least one access"),
        (["faults", "--levels", "1"], "too shallow for 2 sites"),
        (["trace", "nosuch", "out.trace"], "unknown workload 'nosuch'"),
    ], ids=["workload", "trace-length-0", "sweep-trace-length",
            "channels", "trace-file", "faults-accesses", "faults-levels",
            "trace-workload"])
    def test_bad_spec_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [err.splitlines()[-1]]
        assert errors[0].startswith(f"repro {argv[0]}: error: ")
        assert message in errors[0]
        assert "Traceback" not in err


class TestAuditTrace:
    @pytest.mark.parametrize("flags", [
        ["--misses", "0", "--accesses", "0"],
        ["--misses", "1"],
        ["--accesses", "1"],
        ["--accesses", "-5"],
    ], ids=["both-zero", "one-miss", "one-access", "negative"])
    def test_streams_below_two_are_a_usage_error(self, flags, capsys):
        # two streams of fewer than two addresses can be identical, so a
        # verdict on them would be about the input, not the designs
        with pytest.raises(SystemExit) as excinfo:
            main(["audit-trace"] + flags)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error" in line]
        assert errors == [err.splitlines()[-1]]
        assert errors[0].startswith("repro audit-trace: error: argument --")
        assert "must be at least 2" in errors[0]
        assert "Traceback" not in err

    def test_short_streams_keep_their_honest_verdict(self, capsys):
        # 8 accesses route every address of both streams to one shard, so
        # the exposed-shard control cannot diverge: the audit says UNSOUND
        assert main(["audit-trace", "--misses", "2", "--accesses", "8"]) == 1
        captured = capsys.readouterr()
        assert ("BAD  negative-control:routing:sharded+shard-exposed: PASS"
                in captured.out)
        assert captured.err == "audit UNSOUND\n"


class TestServeBench:
    ARGS = SERVE_ARGS + ["--no-cache"]

    @pytest.mark.parametrize("flags,message", [
        (["--write-fraction", "2"], "write_fraction must be a probability"),
        (["--profile", "nope"], "unknown workload 'nope'"),
        (["--levels", "2"], "at least 3 levels"),
        (["--capacity", "0"], "capacity must be at least 1"),
        (["--design", "independent", "--sites", "3"],
         "power-of-two site count"),
        (["--design", "independent", "--shards", "2", "--levels", "4"],
         "more subtrees than leaves"),
        (["--design", "split", "--shards", "2", "--quarantine-shard", "0"],
         "no quarantine seam"),
        (["--adapt", "--tenants", "3", "--declassify", "t9"],
         "unknown declassified tenants ['t9']"),
    ], ids=["write-fraction", "profile", "levels", "capacity", "sites",
            "subtrees", "quarantine-design", "declassify"])
    def test_invalid_input_is_a_usage_error(self, flags, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.ARGS + flags + ["--jobs", "2"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "repro serve-bench: error: " in err
        assert message in err

    @pytest.mark.parametrize("shards,kinds", [
        (1, ["serve"]),
        (2, ["serve-shard", "serve-shard", "serve-sharded"]),
    ])
    def test_report_file_is_the_sweep(self, shards, kinds, tmp_path,
                                      capsys, monkeypatch):
        import json

        from repro.serve.bench import ServeSpec, run_serve_sweep
        from repro.serve.slo import canonical_json

        monkeypatch.delenv("REPRO_NO_LEDGER", raising=False)
        report = tmp_path / "report.json"
        ledger = tmp_path / "ledger.jsonl"
        assert main(self.ARGS + ["--design", "independent",
                                 "--shards", str(shards),
                                 "--report", str(report),
                                 "--ledger", str(ledger)]) == 0
        capsys.readouterr()
        spec = ServeSpec(design="independent", levels=6, rate=0.02,
                         requests=96, capacity=16, batch=4, shards=shards)
        expected = ",".join(canonical_json(entry)
                            for entry, _ in run_serve_sweep([spec]))
        assert report.read_text() == f"[{expected}]\n"
        assert [json.loads(line)["kind"]
                for line in ledger.read_text().splitlines()] == kinds
