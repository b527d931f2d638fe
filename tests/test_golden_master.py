"""Golden-master regression net over the timing model.

The whole simulator is deterministic, so one short run per design pins
its exact cycle count.  Any change to timing parameters, scheduling
decisions, protocol message flows, or RNG stream layout moves these
numbers — which is the point: the figures in EXPERIMENTS.md are only as
stable as these values.  If you change the model *intentionally*,
regenerate the goldens (the command is in the module docstring's
companion note below) and re-run the figure benchmarks.

Regenerate with:

    python - <<'EOF'
    from repro.config import table2_config, DesignPoint as D
    from repro.sim.system import run_simulation
    for design, ch in [...]:
        r = run_simulation(table2_config(design, channels=ch),
                           'gromacs', trace_length=1500)
        print(design, ch, r.execution_cycles, r.accessoram_count)
    EOF
"""

import pytest

from repro.config import DesignPoint, table2_config
from repro.obs.ledger import simulation_core
from repro.parallel.sweep import SweepPoint, run_sweep
from repro.sim.system import run_simulation

GOLDENS = {
    (DesignPoint.NONSECURE, 1): (127_079, 0),
    (DesignPoint.FREECURSIVE, 1): (1_433_300, 777),
    (DesignPoint.INDEP_2, 1): (833_526, 777),
    (DesignPoint.SPLIT_2, 1): (953_418, 777),
    (DesignPoint.NONSECURE, 2): (122_604, 0),
    (DesignPoint.FREECURSIVE, 2): (839_460, 777),
    (DesignPoint.INDEP_4, 2): (541_512, 777),
    (DesignPoint.SPLIT_4, 2): (721_144, 777),
    (DesignPoint.INDEP_SPLIT, 2): (575_662, 777),
}


@pytest.mark.parametrize("design,channels", sorted(
    GOLDENS, key=lambda key: (key[1], key[0].value)))
def test_golden_cycles(design, channels):
    result = run_simulation(table2_config(design, channels=channels),
                            "gromacs", trace_length=1500)
    expected_cycles, expected_accessorams = GOLDENS[(design, channels)]
    assert result.execution_cycles == expected_cycles, (
        f"{design.value}/{channels}ch moved from {expected_cycles:,} to "
        f"{result.execution_cycles:,} cycles — if intentional, regenerate "
        f"the goldens and re-check EXPERIMENTS.md")
    assert result.accessoram_count == expected_accessorams


def test_goldens_tell_the_papers_story():
    """The pinned numbers themselves encode the headline orderings."""
    def cycles(design, channels):
        return GOLDENS[(design, channels)][0]

    # ORAM costs multiples (Figure 6)
    assert cycles(DesignPoint.FREECURSIVE, 1) > \
        8 * cycles(DesignPoint.NONSECURE, 1)
    # every SDIMM design beats Freecursive (Figures 8/9)
    for design, channels in ((DesignPoint.INDEP_2, 1),
                             (DesignPoint.SPLIT_2, 1),
                             (DesignPoint.INDEP_4, 2),
                             (DesignPoint.SPLIT_4, 2),
                             (DesignPoint.INDEP_SPLIT, 2)):
        assert cycles(design, channels) < \
            cycles(DesignPoint.FREECURSIVE, channels), design
    # the combined design is the best 2-channel secure option for this
    # (high-MLP) workload, short of raw INDEP-4 parallelism
    assert cycles(DesignPoint.INDEP_SPLIT, 2) < \
        cycles(DesignPoint.SPLIT_4, 2)


#: The gate suite's full ledger ``measure`` on ``mcf``: every simulated
#: key of :func:`~repro.obs.ledger.simulation_core`, pinned exactly.
GATE_MEASURES = {
    DesignPoint.FREECURSIVE: {
        "execution_cycles": 1_078_838,
        "miss_count": 378,
        "accessoram_count": 595,
        "main_bus_lines": 0,
        "probe_commands": 0,
        "drain_accesses": 0,
        "phase_cycles": {"PATH_READ": 539_032, "PATH_WRITE": 514_606,
                         "idle": 25_200},
        "slo": {"count": 378, "max": 37_916, "mean": 16787.25396825397,
                "p50": 15_920, "p95": 26_822, "p99": 30_356,
                "p999": 37_916},
        "failures": 0,
        "windows": 40,
        "fastpath_hit_rate": 1.0,
    },
    DesignPoint.INDEP_2: {
        "execution_cycles": 668_479,
        "miss_count": 378,
        "accessoram_count": 595,
        "main_bus_lines": 2_380,
        "probe_commands": 292_156,
        "drain_accesses": 22,
        "phase_cycles": {"ACCESS": 5_205, "APPEND": 10_371,
                         "FETCH_RESULT": 5_540, "PATH_READ": 362_040,
                         "PATH_WRITE": 269_853, "PROBE": 5_331,
                         "idle": 10_139},
        "slo": {"count": 378, "max": 24_397, "mean": 6628.896825396825,
                "p50": 5_255, "p95": 16_837, "p99": 21_602,
                "p999": 24_397},
        "failures": 0,
        "windows": 25,
        "fastpath_hit_rate": 1.0,
    },
    DesignPoint.SPLIT_2: {
        "execution_cycles": 725_562,
        "miss_count": 378,
        "accessoram_count": 595,
        "main_bus_lines": 16_660,
        "probe_commands": 0,
        "drain_accesses": 0,
        "phase_cycles": {"FETCH_DATA": 234_530, "FETCH_STASH": 23_800,
                         "METADATA": 95_200, "PATH_WRITE": 342_620,
                         "RECEIVE_LIST": 14_280, "idle": 15_132},
        "slo": {"count": 378, "max": 26_421, "mean": 7097.544973544974,
                "p50": 6_183, "p95": 17_760, "p99": 23_580,
                "p999": 26_421},
        "failures": 0,
        "windows": 27,
        "fastpath_hit_rate": 1.0,
    },
    DesignPoint.INDEP_SPLIT: {
        "execution_cycles": 478_678,
        "miss_count": 378,
        "accessoram_count": 595,
        "main_bus_lines": 20_800,
        "probe_commands": 0,
        "drain_accesses": 25,
        "phase_cycles": {"ACCESS": 5_297, "APPEND": 5_920,
                         "FETCH_DATA": 159_112, "FETCH_RESULT": 5_308,
                         "FETCH_STASH": 21_579, "METADATA": 94_836,
                         "PATH_WRITE": 166_729, "RECEIVE_LIST": 12_313,
                         "idle": 7_584},
        "slo": {"count": 378, "max": 17_330, "mean": 3950.121693121693,
                "p50": 2_938, "p95": 11_542, "p99": 14_514,
                "p999": 17_330},
        "failures": 0,
        "windows": 18,
        "fastpath_hit_rate": 1.0,
    },
}

#: Channels per gate point; INDEP-SPLIT needs two (one split group each).
GATE_CHANNELS = {DesignPoint.INDEP_SPLIT: 2}


@pytest.mark.parametrize("design", list(GATE_MEASURES),
                         ids=lambda design: design.value)
def test_gate_suite_measure(design):
    """One mcf point per design (single-channel, except INDEP-SPLIT on
    two), traced and windowed, through the same sweep path (and result
    round-trip) the ledger records use; the whole measure must match, not
    just the cycles."""
    point = SweepPoint(design=design, workload="mcf",
                       channels=GATE_CHANNELS.get(design, 1),
                       trace_length=1200, seed=2018,
                       window_policy="in-order", collect_trace=True,
                       window_cycles=50_000)
    (entry,) = run_sweep([point]).results
    # only the measure is compared, so the digests are left empty
    core = simulation_core(design.value, point.workload, entry.result,
                           config_digest_hex="", fingerprint="")
    assert core["measure"] == GATE_MEASURES[design]
