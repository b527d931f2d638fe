"""Golden-master determinism of the parallel sweep engine.

The ISSUE-level guarantee: ``run_sweep(points, jobs=4)`` is **byte
identical** to ``run_sweep(points, jobs=1)`` — same ``RunResult`` fields
(including the traced ``phase_cycles`` breakdown), same submission
ordering — no matter how pool workers interleave.
Also covered: the serial fallback when no pool can be created, the
sweep counters, cache interaction of a full sweep, and the core selection
reaching every task whatever ``jobs`` is.
"""

import concurrent.futures

import pytest

from repro.config import DesignPoint, small_config
from repro.parallel.cache import RunCache
from repro.parallel.serialize import run_result_to_dict
from repro.parallel.sweep import SweepPoint, run_sweep
from repro.utils.canonical import canonical_json
import repro.parallel.pool as pool_module

#: 2 designs x 2 workloads, all traced — the matrix the issue asks for.
POINTS = tuple(
    SweepPoint(design, workload, trace_length=300, collect_trace=True,
               config=small_config(design))
    for design in (DesignPoint.FREECURSIVE, DesignPoint.INDEP_2)
    for workload in ("mcf", "gromacs"))


def result_bytes(outcome):
    """Every observable of a sweep, canonically serialized."""
    return [
        (canonical_json(run_result_to_dict(entry.result)),
         entry.from_cache)
        for entry in outcome.results
    ]


@pytest.fixture(scope="module")
def serial_outcome():
    return run_sweep(list(POINTS), jobs=1)


class TestDeterminism:
    def test_parallel_is_byte_identical_to_serial(self, serial_outcome):
        parallel = run_sweep(list(POINTS), jobs=4)
        assert result_bytes(parallel) == result_bytes(serial_outcome)

    def test_phase_cycles_survive_the_pool(self, serial_outcome):
        parallel = run_sweep(list(POINTS), jobs=4)
        for serial_entry, parallel_entry in zip(serial_outcome.results,
                                                parallel.results):
            assert serial_entry.result.phase_cycles
            assert (serial_entry.result.phase_cycles ==
                    parallel_entry.result.phase_cycles)

    def test_results_come_back_in_submission_order(self, serial_outcome):
        for point, entry in zip(POINTS, serial_outcome.results):
            assert entry.point == point


class TestSerialFallback:
    def test_pool_failure_degrades_to_serial(self, serial_outcome,
                                             monkeypatch):
        pool_module.shutdown_pools()  # a live warm pool would bypass the patch

        def unavailable(max_workers):
            raise NotImplementedError("no process pools here")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            unavailable)
        fallback = run_sweep(list(POINTS), jobs=4)
        assert result_bytes(fallback) == result_bytes(serial_outcome)

    def test_jobs_one_never_builds_a_pool(self, monkeypatch):
        def boom(max_workers):
            raise AssertionError("jobs=1 must not construct a pool")
        pool_module.shutdown_pools()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", boom)
        outcome = run_sweep([POINTS[0]], jobs=1)
        assert len(outcome.results) == 1


class TestWarmPools:
    def test_pool_is_reused_across_sweeps(self, monkeypatch):
        pool_module.shutdown_pools()
        builds = []
        real = concurrent.futures.ProcessPoolExecutor

        def counting(max_workers):
            builds.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            counting)
        first = run_sweep(list(POINTS), jobs=2)
        second = run_sweep(list(POINTS), jobs=2)
        assert result_bytes(first) == result_bytes(second)
        assert builds == [2]  # second sweep reused the warm pool
        pool_module.shutdown_pools()

    def test_warm_pool_results_match_serial(self, serial_outcome):
        pool_module.shutdown_pools()
        run_sweep(list(POINTS[:2]), jobs=2)  # warms the 2-worker pool
        warm = run_sweep(list(POINTS), jobs=2)
        assert result_bytes(warm) == result_bytes(serial_outcome)
        pool_module.shutdown_pools()

    def test_env_switch_toggle_reaches_warm_pool_workers(self, monkeypatch):
        """A core switch must not go stale inside a reused warm pool.

        The pool is built under the default core; every task carries the
        core selection read from the environment at call time, so a
        toggle between two sweeps on the same warm pool takes effect.
        """
        pool_module.shutdown_pools()
        monkeypatch.delenv("REPRO_REFERENCE_CORE", raising=False)
        points = list(POINTS[:2])
        enabled = run_sweep(points, jobs=2)
        monkeypatch.setenv("REPRO_REFERENCE_CORE", "1")
        disabled = run_sweep(points, jobs=2)
        pool_module.shutdown_pools()
        for entry in enabled.results:
            assert entry.result.extras["fastpath_hit_rate"] == 1.0
        for entry in disabled.results:
            assert entry.result.extras["fastpath_hit_rate"] == 0.0
        # the cycle observables themselves are switch-invariant
        assert ([entry.result.execution_cycles
                 for entry in enabled.results] ==
                [entry.result.execution_cycles
                 for entry in disabled.results])

    def test_discard_pool_recovers_after_worker_error(self, monkeypatch):
        pool_module.shutdown_pools()
        bad = SweepPoint(DesignPoint.FREECURSIVE, "no-such-workload",
                         trace_length=300,
                         config=small_config(DesignPoint.FREECURSIVE))
        with pytest.raises(Exception):
            run_sweep([bad, bad], jobs=2)
        assert pool_module._POOLS == {}  # broken pool was dropped
        outcome = run_sweep(list(POINTS), jobs=2)
        assert len(outcome.results) == len(POINTS)
        pool_module.shutdown_pools()


class TestCoreSelection:
    """The core selection reaches every task, whatever ``jobs`` is."""

    def test_toggle_gives_identical_results_for_any_jobs(self, monkeypatch):
        points = list(POINTS[:2])
        monkeypatch.delenv("REPRO_REFERENCE_CORE", raising=False)
        run_sweep(points, jobs=1)
        monkeypatch.setenv("REPRO_REFERENCE_CORE", "1")
        serial = run_sweep(points, jobs=1)
        parallel = run_sweep(points, jobs=2)
        pool_module.shutdown_pools()
        assert result_bytes(serial) == result_bytes(parallel)
        for entry in serial.results:
            assert entry.result.extras["fastpath_hit_rate"] == 0.0

    def test_in_process_selection_does_not_leak(self, monkeypatch):
        from repro.utils import memo

        before = memo.CORE
        monkeypatch.setenv("REPRO_REFERENCE_CORE", "1")
        run_sweep([POINTS[0]], jobs=1)
        assert memo.CORE == before

    def test_cache_never_replays_another_cores_result(self, tmp_path,
                                                      monkeypatch):
        cache = RunCache(str(tmp_path / "runs"))
        points = list(POINTS[:2])
        monkeypatch.delenv("REPRO_REFERENCE_CORE", raising=False)
        run_sweep(points, jobs=2, cache=cache)
        monkeypatch.setenv("REPRO_REFERENCE_CORE", "1")
        toggled = run_sweep(points, jobs=2, cache=cache)
        fresh = run_sweep(points, jobs=2)
        pool_module.shutdown_pools()
        assert all(not entry.from_cache for entry in toggled.results)
        assert ([bytes_ for bytes_, _ in result_bytes(toggled)] ==
                [bytes_ for bytes_, _ in result_bytes(fresh)])
        for entry in toggled.results:
            assert entry.result.extras["fastpath_hit_rate"] == 0.0
        # and the toggled entries replay under the toggled core
        replay = run_sweep(points, jobs=2, cache=cache)
        assert all(entry.from_cache for entry in replay.results)
        assert result_bytes(replay)[0][0] == result_bytes(toggled)[0][0]


class TestMetrics:
    def test_worker_metrics_fold_into_one_registry(self):
        outcome = run_sweep(list(POINTS[:2]), jobs=2)
        metrics = outcome.metrics.as_dict()
        assert metrics["counters"]["sweep/executed"] == 2
        assert metrics["counters"]["sweep/points"] == 2
        assert metrics["histograms"]["sweep/wall_ms"]["count"] == 2

    def test_jobs_recorded(self):
        outcome = run_sweep([POINTS[0]], jobs=3)
        assert outcome.jobs == 3
        assert outcome.metrics.as_dict()["gauges"]["sweep/jobs"]["last"] == 3


class TestSweepWithCache:
    def test_second_sweep_is_all_hits_and_identical(self, tmp_path,
                                                    serial_outcome):
        cache = RunCache(str(tmp_path / "runs"))
        first = run_sweep(list(POINTS), jobs=2, cache=cache)
        assert all(not entry.from_cache for entry in first.results)
        assert cache.stats.writes == len(POINTS)

        second = run_sweep(list(POINTS), jobs=2, cache=cache)
        assert all(entry.from_cache for entry in second.results)
        # cached bytes match the pool-free serial ground truth
        assert ([bytes_ for bytes_, _ in result_bytes(second)] ==
                [bytes_ for bytes_, _ in result_bytes(serial_outcome)])
        assert cache.stats.hits == len(POINTS)

    def test_traced_and_untraced_points_never_share_entries(self, tmp_path):
        cache = RunCache(str(tmp_path / "runs"))
        traced = POINTS[0]
        untraced = SweepPoint(traced.design, traced.workload,
                              trace_length=traced.trace_length,
                              collect_trace=False, config=traced.config)
        run_sweep([traced], jobs=1, cache=cache)
        outcome = run_sweep([untraced], jobs=1, cache=cache)
        assert not outcome.results[0].from_cache
        assert cache.entry_count() == 2
