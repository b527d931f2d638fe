"""The one process fan-out: order, host metadata, cache, core, failures."""

import os
import subprocess
import sys
import textwrap

import pytest

import repro.parallel.pool as pool_module
from repro.parallel.cache import RunCache
from repro.parallel.pool import fanout
from repro.utils import memo

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def square(task):
    return {"value": task * task}


def running_core(task):
    return {"reference": memo.CORE.reference}


@pytest.fixture(autouse=True)
def fresh_pools():
    pool_module.shutdown_pools()
    yield
    pool_module.shutdown_pools()


class TestFanout:
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_submission_order_and_uniform_metadata(self, jobs):
        outcomes = fanout(range(7), square, jobs=jobs)
        assert [value for value, _ in outcomes] == \
            [{"value": task * task} for task in range(7)]
        for _, meta in outcomes:
            assert sorted(meta) == ["from_cache", "wall_ms"]
            assert meta["from_cache"] is False
            assert meta["wall_ms"] >= 0.0

    def test_cache_replays_with_zero_wall_ms(self, tmp_path):
        cache = RunCache(str(tmp_path / "runs"))
        first = fanout([2, 3], square, jobs=2, cache=cache, key=str)
        second = fanout([2, 3], square, jobs=2, cache=cache, key=str)
        assert [value for value, _ in first] == \
            [value for value, _ in second]
        assert [meta for _, meta in second] == \
            [{"wall_ms": 0.0, "from_cache": True}] * 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_tasks_run_under_the_selection_from_the_env(self, jobs,
                                                        monkeypatch):
        monkeypatch.setenv("REPRO_REFERENCE_CORE", "1")
        outcomes = fanout([0, 1], running_core, jobs=jobs)
        assert [value for value, _ in outcomes] == \
            [{"reference": True}] * 2


class TestDeadWorker:
    def test_killed_worker_raises_discards_and_recovers(self):
        """A worker that dies mid-run ends in BrokenProcessPool, bounded.

        Run in a subprocess under a timeout, so a regression to a
        hanging pool fails this test instead of stalling the suite.
        """
        script = textwrap.dedent("""
            import os
            from concurrent.futures.process import BrokenProcessPool

            import repro.parallel.pool as pool_module
            from repro.parallel.pool import fanout

            def die_on_one(task):
                if task == 1:
                    os._exit(1)
                return task

            try:
                fanout([0, 1, 2, 3], die_on_one, jobs=2)
            except BrokenProcessPool:
                print("broken")
            print("discarded", 2 not in pool_module._POOLS)
            outcomes = fanout([0, 2, 3], die_on_one, jobs=2)
            print("recovered", [value for value, _ in outcomes])
            pool_module.shutdown_pools()
        """)
        env = dict(os.environ, PYTHONPATH=SRC)
        completed = subprocess.run([sys.executable, "-c", script],
                                   capture_output=True, text=True,
                                   env=env, timeout=60)
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.split("\n")[:3] == [
            "broken", "discarded True", "recovered [0, 2, 3]"]

    def test_results_finished_before_a_death_stay_cached(self, tmp_path):
        """Each result is cached as it arrives, so a worker that dies
        after five tasks returned leaves their five entries on disk."""
        script = textwrap.dedent("""
            import os
            import sys
            import time
            from concurrent.futures.process import BrokenProcessPool

            import repro.parallel.pool as pool_module
            from repro.parallel.cache import RunCache
            from repro.parallel.pool import fanout

            def die_last(task):
                index, directory = task
                if index == 5:
                    deadline = time.monotonic() + 10.0
                    while RunCache(directory).entry_count() < 5 and \\
                            time.monotonic() < deadline:
                        time.sleep(0.01)
                    os._exit(1)
                return {"value": index}

            directory = sys.argv[1]
            try:
                fanout([(index, directory) for index in range(6)],
                       die_last, jobs=2, cache=RunCache(directory),
                       key=lambda task: task[0])
            except BrokenProcessPool:
                print("broken")
            print("entries", RunCache(directory).entry_count())
            pool_module.shutdown_pools()
        """)
        env = dict(os.environ, PYTHONPATH=SRC)
        completed = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "runs")],
            capture_output=True, text=True, env=env, timeout=60)
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.split("\n")[:2] == ["broken", "entries 5"]

