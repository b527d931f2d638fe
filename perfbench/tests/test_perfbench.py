"""The benchmark's own tests: checks, negative controls, tracing, contract.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: A seed the stored references and the tuning never used.
HELD_OUT_SEED = 4242


def bench(*args, env=None):
    """Run the benchmark CLI; returns (exit code, stdout, last-line JSON)."""
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=600)
    lines = completed.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return completed.returncode, completed.stdout, result


# ----------------------------------------------------------------------
# Contract
# ----------------------------------------------------------------------

def test_benchmark_json_matches_the_metric_tables():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(config) == {"command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"}
    assert [entry["name"] for entry in config["workloads"]] == \
        list(workloads.WORKLOADS)
    end_to_end = spec.by_name(spec.END_TO_END)
    assert [entry["name"] for entry in config["end_to_end"]] == \
        list(spec.GATED)
    for entry in config["end_to_end"]:
        metric = end_to_end[entry["name"]]
        assert (entry["unit"], entry["better"]) == (metric.unit,
                                                    metric.better)
        assert 0 < entry["bound"] <= 0.25
    assert [(entry["name"], entry["unit"], entry["better"])
            for entry in config["per_layer"]] == \
        [(metric.name, metric.unit, metric.better)
         for metric in spec.PER_LAYER]
    assert set(spec.LAYER_MAP) == set(tracing.LAYERS) | {"workloads"}


def test_refuses_core_switches_without_printing_a_result():
    env = dict(os.environ, REPRO_REFERENCE_CORE="1")
    code, stdout, result = bench("--workload", "serve-read", "--seed", "1",
                                 "--seconds", "1", env=env)
    assert code == 2 and result is None
    assert "correct" not in stdout


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-oram",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


# ----------------------------------------------------------------------
# Output checks and negative controls
# ----------------------------------------------------------------------

def test_llc_replay_agrees_with_the_simulator():
    inputs = workloads.make_inputs("sim-baseline", HELD_OUT_SEED)
    expected = checks.llc_expectations(inputs)
    results = workloads.run_sim_pass(
        replace(inputs, points=inputs.points[:3]))
    for item in results:
        assert checks.check_sim_point(item, expected[item.point.key],
                                      None) == []


def test_serve_replay_check_catches_one_flipped_byte():
    small = replace(workloads.SERVE_READ, requests=128)
    inputs = workloads.make_serve_inputs(small, HELD_OUT_SEED, 4)
    clean = workloads.run_serve_pass(inputs)
    assert checks.check_serve_pass(clean) == (0, [])
    assert checks.check_serve_pass(clean, first=clean) == (0, [])
    corrupt = workloads.run_serve_pass(inputs, corrupt_read=3)
    failed, problems = checks.check_serve_pass(corrupt)
    assert failed == len(inputs.points) and problems


def test_reference_check_catches_a_perturbed_reference():
    inputs = workloads.make_inputs("sim-baseline", workloads.DEFAULT_SEED)
    results = workloads.run_sim_pass(inputs)
    expected = checks.llc_expectations(inputs)
    references = checks.load_references("sim-baseline",
                                        workloads.DEFAULT_SEED)
    assert checks.check_sim_pass(results, expected, references) == (0, [])
    failed, problems = checks.check_sim_pass(
        results, expected, checks.perturb(references))
    assert failed == inputs.points[0].records and len(problems) == 1
    assert checks.load_references("sim-baseline", HELD_OUT_SEED) is None


@pytest.mark.parametrize("workload, control, seed", [
    ("serve-read", "read-byte", HELD_OUT_SEED),
    ("sim-baseline", "reference", workloads.DEFAULT_SEED),
])
def test_negative_control_fails_the_run(workload, control, seed):
    code, stdout, result = bench("--workload", workload, "--seed",
                                 str(seed), "--seconds", "0.1",
                                 "--negative-control", control)
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0
    error_rate = next(line for line in stdout.splitlines()
                      if line.startswith("error_rate"))
    assert float(error_rate.split()[1]) > 0


# ----------------------------------------------------------------------
# Measured and traced runs on a held-out seed
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workload", ["sim-baseline", "serve-write"])
def test_measured_run_on_a_held_out_seed(workload):
    code, _, result = bench("--workload", workload, "--seed",
                            str(HELD_OUT_SEED), "--seconds", "0.1")
    assert code == 0 and result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == list(spec.GATED)
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    saved = json.loads((run.OUT / f"{workload}-seed{HELD_OUT_SEED}"
                        "-trace0.json").read_text())
    wanted = {metric.name for metric in spec.END_TO_END
              if workload in metric.workloads}
    assert set(saved["metrics"]) == wanted
    assert saved["env"]["nproc"] >= 1 and saved["env"]["python"]


def test_traced_run_reports_every_layer_metric():
    code, _, result = bench("--workload", "serve-write", "--seed",
                            str(HELD_OUT_SEED), "--seconds", "0.1",
                            "--trace", "1")
    assert code == 0 and result["correct"] is True
    metrics = {name: entry["value"]
               for name, entry in result["metrics"].items()}
    assert list(metrics) == [metric.name for metric in spec.PER_LAYER]
    assert metrics["crypto.self_share"] > 0
    assert metrics["control.decisions"] > 0
    assert metrics["fastpath.self_share"] == 0
    assert metrics["sim.self_share"] == 0
    shares = sum(metrics[f"{layer}.self_share"] for layer in tracing.LAYERS)
    assert shares == pytest.approx(100.0)
    spans = (run.OUT / f"spans-serve-write-seed{HELD_OUT_SEED}.jsonl")
    first = json.loads(spans.read_text().splitlines()[0])
    assert set(first) == {"id", "name", "layer", "start", "end", "parent",
                          "op"}


def test_tracing_restores_every_wrapped_function():
    before = [vars(owner)[attribute]
              for owner, attribute, *_ in tracing.TARGETS]
    recorder = tracing.SpanRecorder()
    with tracing.traced(recorder):
        assert all(vars(owner)[attribute] is not original
                   for (owner, attribute, *_), original
                   in zip(tracing.TARGETS, before))
        small = replace(workloads.SERVE_READ, requests=32)
        workloads.run_serve_pass(
            workloads.make_serve_inputs(small, HELD_OUT_SEED, 4))
    assert [vars(owner)[attribute]
            for owner, attribute, *_ in tracing.TARGETS] == before
    assert recorder.root_s > 0
    assert sum(recorder.self_s.values()) == pytest.approx(recorder.root_s)


def test_quantile_is_nearest_rank():
    values = list(range(1, 101))
    assert workloads.quantile(values, 0.50) == 50
    assert workloads.quantile(values, 0.99) == 99
    assert workloads.quantile([7], 0.99) == 7
