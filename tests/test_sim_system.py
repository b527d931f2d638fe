"""Integration tests: full-system runs across designs and workloads."""

import pytest

from repro.config import DesignPoint, table2_config
from repro.sim.stats import LatencyStats, RunResult, geometric_mean
from repro.sim.system import run_simulation
from repro.workloads.spec import SPEC_PROFILES, get_profile

TRACE = 2500  # short traces keep the integration suite quick


def quick_run(design, workload="mcf", channels=1, **kwargs):
    config = table2_config(design, channels=channels)
    return run_simulation(config, workload, trace_length=TRACE, **kwargs)


class TestRunSimulation:
    def test_nonsecure_baseline_runs(self):
        result = quick_run(DesignPoint.NONSECURE)
        assert result.execution_cycles > 0
        assert result.miss_count > 0
        assert result.design == "nonsecure"
        assert result.workload == "mcf"

    def test_oram_slowdown_direction(self):
        """The fundamental result: ORAM costs multiples, not percents."""
        nonsecure = quick_run(DesignPoint.NONSECURE)
        freecursive = quick_run(DesignPoint.FREECURSIVE)
        slowdown = freecursive.execution_cycles / nonsecure.execution_cycles
        assert slowdown > 3

    def test_sdimm_designs_beat_freecursive(self):
        freecursive = quick_run(DesignPoint.FREECURSIVE)
        for design in (DesignPoint.INDEP_2, DesignPoint.SPLIT_2):
            result = quick_run(design)
            assert result.execution_cycles < freecursive.execution_cycles, \
                design

    def test_accessorams_per_miss_reasonable(self):
        result = quick_run(DesignPoint.FREECURSIVE)
        assert 1.0 <= result.accessorams_per_miss < 4.0

    def test_plb_disabled_costs_more_accesses(self):
        with_plb = quick_run(DesignPoint.FREECURSIVE)
        config = table2_config(DesignPoint.FREECURSIVE)
        # full recursion: every miss pays the whole PosMap chain
        assert with_plb.accessorams_per_miss < \
            config.oram.recursive_posmaps + 1

    def test_main_bus_quiet_for_independent(self):
        """INDEP's headline: the memory channel carries blocks, not paths."""
        freecursive = quick_run(DesignPoint.FREECURSIVE)
        independent = quick_run(DesignPoint.INDEP_2)
        fc_lines = sum(counters["reads"] + counters["writes"]
                       for counters in freecursive.channel_counters)
        assert independent.main_bus_lines < 0.2 * fc_lines

    def test_split_latency_below_freecursive(self):
        freecursive = quick_run(DesignPoint.FREECURSIVE)
        split = quick_run(DesignPoint.SPLIT_2)
        assert split.miss_latency.mean < freecursive.miss_latency.mean

    def test_oram_cache_toggle(self):
        cached = quick_run(DesignPoint.FREECURSIVE)
        uncached = run_simulation(
            table2_config(DesignPoint.FREECURSIVE, oram_cache_enabled=False),
            "mcf", trace_length=TRACE)
        assert uncached.execution_cycles > cached.execution_cycles

    def test_warmup_must_leave_window(self):
        config = table2_config(DesignPoint.NONSECURE)
        with pytest.raises(ValueError):
            run_simulation(config, "mcf", trace_length=100,
                           warmup_records=100)

    def test_profile_object_accepted(self):
        result = run_simulation(table2_config(DesignPoint.NONSECURE),
                                get_profile("gromacs"), trace_length=TRACE)
        assert result.workload == "gromacs"

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            quick_run(DesignPoint.NONSECURE, workload="doom")

    def test_deterministic(self):
        first = quick_run(DesignPoint.FREECURSIVE)
        second = quick_run(DesignPoint.FREECURSIVE)
        assert first.execution_cycles == second.execution_cycles

    def test_seed_changes_results(self):
        first = quick_run(DesignPoint.FREECURSIVE, trace_seed=1)
        second = quick_run(DesignPoint.FREECURSIVE, trace_seed=2)
        assert first.execution_cycles != second.execution_cycles

    def test_rank_residencies_populated(self):
        result = quick_run(DesignPoint.INDEP_2)
        assert result.rank_residencies
        # the low-power scheme parks ranks: power-down time must dominate
        power_down = sum(res.get("power-down", 0)
                         for res in result.rank_residencies)
        total = sum(sum(res.values()) for res in result.rank_residencies)
        assert power_down > 0.4 * total

    def test_all_ten_workloads_run_nonsecure(self):
        for name in SPEC_PROFILES:
            result = quick_run(DesignPoint.NONSECURE, workload=name)
            assert result.miss_count > 0, name


class TestStats:
    def test_latency_stats(self):
        stats = LatencyStats()
        for value in (10, 20, 30):
            stats.record(value)
        assert stats.mean == 20
        assert stats.maximum == 30
        assert stats.percentile(0.5) == 20

    def test_latency_percentile_empty(self):
        assert LatencyStats().percentile(0.9) == 0

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([0.0, 1.0])

    def test_run_result_helpers(self):
        def make(cycles):
            return RunResult(
                design="x", workload="w", execution_cycles=cycles,
                miss_count=10, accessoram_count=14, llc_hit_rate=0.5,
                miss_latency=LatencyStats(), channel_counters=[],
                on_dimm_counters=[], main_bus_lines=0, probe_commands=0,
                drain_accesses=0)

        fast, slow = make(100), make(200)
        assert fast.speedup_over(slow) == 2.0
        assert fast.normalized_time(slow) == 0.5
        assert fast.accessorams_per_miss == pytest.approx(1.4)
