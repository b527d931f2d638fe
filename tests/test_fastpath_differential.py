"""Property test: fast core == reference core under adversarial mixes.

The macro-replay core must be byte-identical to the reference event core
not just on clean straight-line runs but when stamped path accesses
interleave with everything that perturbs shared state: faulted
campaigns (:mod:`repro.faults`), out-of-order stall windows, tumbling
window boundaries cutting through bursts, the low-power layout's rank
wakes, channel striping, and the non-secure baseline's FR-FCFS
requests with their write drain.  The parked-rank fallback never fires in
these runs (``prepare_rank`` wakes the rank first);
``tests/test_sim_backends.py::TestParkedRankFallback`` forces it.

Each case seeds a shuffled interleaving of simulation runs and fault
campaigns, executes the whole sequence in one interpreter (so
process-global state — the memo caches — carries across the
interleaving exactly as in production), and asserts the full observable
digest is identical with ``REPRO_REFERENCE_CORE=1``.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

#: Runs a seed-shuffled interleaving and prints a canonical digest.
DRIVER = r"""
import dataclasses, hashlib, json, sys

from repro.config import DesignPoint, small_config
from repro.faults.campaign import CampaignSpec, run_campaign
from repro.obs.tracer import CollectingTracer
from repro.sim.system import run_simulation
from repro.utils.rng import DeterministicRng

seed = int(sys.argv[1])

# (kind, design, workload, window policy, window cycles, channels,
#  records, LLC bytes or None for Table II's 2 MB)
SIM_OPS = [
    ("sim", "freecursive", "mcf", "in-order", 700, 1, 300, None),
    ("sim", "freecursive", "gromacs", "out-of-order", 0, 1, 300, None),
    ("sim", "indep-2", "mcf", "in-order", 900, 1, 300, None),
    ("sim", "split-2", "mcf", "out-of-order", 700, 1, 300, None),
    # striped channels: per-channel segments stamped back into the
    # layout's emission order by slot
    ("sim", "freecursive", "libquantum", "in-order", 700, 2, 300, None),
    # Split groups on two channels: per-way segment shares
    ("sim", "indep-split", "mcf", "out-of-order", 900, 2, 300, None),
    # NONSECURE behind FR-FCFS: call_at against closures, stamp_pass
    # against the reference chain.  The 2 MB LLC posts no dirty victim
    # in short runs (gromacs and libquantum: none in 60,000 records); an
    # 8 KiB LLC posts over 100 in 600 lbm records and crosses the
    # write-drain watermark.
    ("sim", "nonsecure", "lbm", "in-order", 0, 1, 600, 8192),
    ("sim", "nonsecure", "lbm", "out-of-order", 900, 2, 600, 8192),
]
CAMPAIGN_OPS = [
    ("campaign", dict(design="independent", accesses=24, levels=5,
                      bit_flips=2, buffer_stalls=2, seed=seed)),
    ("campaign", dict(design="split", accesses=24, levels=5,
                      link_drops=1, link_delays=2, seed=seed + 1)),
]

ops = SIM_OPS + CAMPAIGN_OPS
rng = DeterministicRng(seed, "fastpath-differential")
order = list(range(len(ops)))
for i in range(len(order) - 1, 0, -1):  # Fisher-Yates with our own RNG
    j = rng.randint(0, i)
    order[i], order[j] = order[j], order[i]

digest = []
for index in order:
    op = ops[index]
    if op[0] == "sim":
        (_, design, workload, policy, window_cycles, channels, records,
         llc_bytes) = op
        config = small_config(DesignPoint(design), channels=channels)
        if llc_bytes is not None:
            config = dataclasses.replace(config, cpu=dataclasses.replace(
                config.cpu, llc_bytes=llc_bytes))
        tracer = CollectingTracer()
        result = run_simulation(config, workload, trace_length=records,
                                trace_seed=seed,
                                window_policy=policy, tracer=tracer,
                                window_cycles=window_cycles)
        events = hashlib.sha256(json.dumps(
            [(e.kind, e.name, e.category, e.lane, e.start, e.duration,
              sorted(e.args.items())) for e in tracer.events],
            sort_keys=True).encode()).hexdigest()
        digest.append({
            "op": op,
            "execution_cycles": result.execution_cycles,
            "phase_cycles": result.phase_cycles,
            "channel_counters": result.channel_counters,
            "rank_residencies": result.rank_residencies,
            "windows": result.windows,
            "events_sha": events,
        })
    else:
        outcome = run_campaign(CampaignSpec(**op[1]))
        digest.append({"op": "campaign", "outcome": outcome.to_dict()})
print(json.dumps(digest, sort_keys=True))
"""


def run_interleaving(seed: int, env_extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_REFERENCE_CORE", None)
    env.update(env_extra)
    proc = subprocess.run([sys.executable, "-c", DRIVER, str(seed)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


class TestInterleavedDifferential:
    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_fast_core_matches_reference_core(self, seed):
        fast = run_interleaving(seed, {})
        reference = run_interleaving(seed, {"REPRO_REFERENCE_CORE": "1"})
        assert fast == reference
        # the baseline ops must post write-backs, or the write queue and
        # its drain go unchecked
        baseline = [entry for entry in fast
                    if entry["op"] != "campaign"
                    and entry["op"][1] == "nonsecure"]
        assert len(baseline) == 2
        for entry in baseline:
            assert sum(channel["writes"]
                       for channel in entry["channel_counters"]) > 0
