"""repro — a from-scratch reproduction of "Secure DIMM: Moving ORAM
Primitives Closer to Memory" (Shafiee, Balasubramonian, Li, Tiwari;
HPCA 2018).

The package has two tiers:

* a **functional tier** with real data, real counter-mode encryption, and
  PMMAC integrity — :class:`PathOram`, :class:`RecursiveOram`,
  :class:`FreecursiveOram`, and the three SDIMM protocols
  (:class:`IndependentProtocol`, :class:`SplitProtocol`,
  :class:`IndepSplitProtocol`) — used to prove correctness and
  obliviousness; and
* a **timing tier** — an event-driven DDR3 simulator
  (:mod:`repro.dram`), full-system backends (:mod:`repro.sim`), workload
  generators (:mod:`repro.workloads`), and energy/area models
  (:mod:`repro.energy`) — used to reproduce the paper's evaluation
  (Figures 6-13, Table I).

Quickstart::

    from repro import PathOram, Op, DeterministicRng

    oram = PathOram(levels=10, blocks_per_bucket=4, block_bytes=64,
                    stash_capacity=200, rng=DeterministicRng(7, "demo"))
    oram.access(42, Op.WRITE, b"secret".ljust(64, b"\\0"))
    data = oram.access(42, Op.READ)

or run a full-system experiment::

    from repro import DesignPoint, run_simulation, table2_config

    result = run_simulation(table2_config(DesignPoint.INDEP_SPLIT,
                                          channels=2), "mcf")
    print(result.execution_cycles)
"""

import importlib

__version__ = "1.0.0"

#: The documented top-level API: each name and the module defining it.
#: A name is imported on first access (PEP 562), so ``import repro.sim``
#: loads only what the simulator uses.
_API = {
    "CommandEncoder": "repro.core.commands",
    "DesignPoint": "repro.config",
    "DeterministicRng": "repro.utils.rng",
    "DramEnergyModel": "repro.energy.dram_power",
    "DramOrganization": "repro.config",
    "DramPower": "repro.config",
    "DramTiming": "repro.config",
    "EnergyReport": "repro.energy.dram_power",
    "FreecursiveOram": "repro.oram.freecursive",
    "IndepSplitProtocol": "repro.core.indep_split",
    "IndependentProtocol": "repro.core.independent",
    "Op": "repro.oram.path_oram",
    "OramConfig": "repro.config",
    "PathOram": "repro.oram.path_oram",
    "RecursiveOram": "repro.oram.recursive",
    "RunResult": "repro.sim.stats",
    "SPEC_PROFILES": "repro.workloads.spec",
    "SdimmCommand": "repro.core.commands",
    "SdimmConfig": "repro.config",
    "SplitProtocol": "repro.core.split",
    "SystemConfig": "repro.config",
    "TransferQueue": "repro.core.transfer_queue",
    "build_backend": "repro.sim.system",
    "generate_trace": "repro.workloads.synthetic",
    "geometric_mean": "repro.sim.stats",
    "get_profile": "repro.workloads.spec",
    "run_simulation": "repro.sim.system",
    "small_config": "repro.config",
    "table2_config": "repro.config",
}

__all__ = sorted(_API)


def __getattr__(name):
    if name not in _API:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_API[name]), name)
