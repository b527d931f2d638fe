"""DDR3 energy accounting in the style of the Micron power calculator.

Converts the event counters and rank-state residencies a simulation run
produces into energy, using the standard IDD-based formulas:

* activate/precharge pairs:  (IDD0·tRC − IDD3N·tRAS − IDD2N·(tRC−tRAS))·VDD
* read / write bursts:       (IDD4R/W − IDD3N)·VDD·tBURST
* refresh:                   (IDD5 − IDD2N)·VDD·tRFC
* background:                IDD{3N,2N,2P,6}·VDD by rank state residency
* I/O:                       pJ/bit, with separate rates for transfers that
                             cross the main memory channel vs. transfers
                             that stay on the DIMM between the secure
                             buffer and the DRAM chips.

The last two lines carry the paper's energy story (Figure 10): SDIMMs keep
most transfers on-DIMM, and the low-power layout keeps most ranks in
power-down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.config import SystemConfig
from repro.sim.stats import RunResult

_BITS_PER_LINE = 64 * 8


@dataclass
class EnergyReport:
    """Energy breakdown for one run, in picojoules."""

    activate_pj: float = 0.0
    read_write_pj: float = 0.0
    refresh_pj: float = 0.0
    background_pj: float = 0.0
    io_pj: float = 0.0
    detail: Dict[str, float] = field(default_factory=dict)

    @property
    def total_pj(self) -> float:
        return (self.activate_pj + self.read_write_pj + self.refresh_pj +
                self.background_pj + self.io_pj)

    def normalized_to(self, baseline: "EnergyReport") -> float:
        """Energy relative to a baseline run (Figure 10's y-axis)."""
        if baseline.total_pj == 0:
            raise ValueError("baseline consumed no energy")
        return self.total_pj / baseline.total_pj

    def as_dict(self) -> Dict[str, float]:
        return {
            "activate_pj": self.activate_pj,
            "read_write_pj": self.read_write_pj,
            "refresh_pj": self.refresh_pj,
            "background_pj": self.background_pj,
            "io_pj": self.io_pj,
            "total_pj": self.total_pj,
        }


class DramEnergyModel:
    """Converts counters from a :class:`RunResult` into an energy report."""

    def __init__(self, config: SystemConfig):
        self.power = config.power
        self.timing = config.timing
        self._tck = config.timing.tck_ns
        self._cpu_cycle_ns = (config.timing.tck_ns /
                              config.cpu.cpu_cycles_per_mem_cycle)
        self._devices = config.organization.devices_per_rank

    # ------------------------------------------------------------------
    # Per-event energies (pJ)
    # ------------------------------------------------------------------

    def activate_energy_pj(self) -> float:
        p = self.power
        t = self.timing
        charge_ma_cycles = (p.idd0 * t.trc - p.idd3n * t.tras -
                            p.idd2n * (t.trc - t.tras))
        return charge_ma_cycles * p.vdd * self._tck * self._devices

    def burst_energy_pj(self, is_write: bool) -> float:
        p = self.power
        current = p.idd4w if is_write else p.idd4r
        return ((current - p.idd3n) * p.vdd * self.timing.tburst *
                self._tck * self._devices)

    def refresh_energy_pj(self) -> float:
        p = self.power
        return ((p.idd5 - p.idd2n) * p.vdd * self.timing.trfc *
                self._tck * self._devices)

    def background_power_mw(self, state: str) -> float:
        """Per-rank background power by state name (mW)."""
        currents = {
            "active": self.power.idd3n,
            "standby": self.power.idd2n,
            "power-down": self.power.idd2p,
            "self-refresh": self.power.idd6,
        }
        if state not in currents:
            raise ValueError(f"unknown power state {state!r}")
        return currents[state] * self.power.vdd * self._devices

    def io_energy_pj(self, lines: int, on_dimm: bool) -> float:
        rate = (self.power.io_on_dimm_pj_per_bit if on_dimm
                else self.power.io_channel_pj_per_bit)
        return lines * _BITS_PER_LINE * rate

    # ------------------------------------------------------------------
    # Whole-run accounting
    # ------------------------------------------------------------------

    def report(self, result: RunResult) -> EnergyReport:
        """Energy for one run's measured window.

        DRAM-side counters cover the whole run (warm-up included) — both
        compared runs share that treatment, so normalized ratios (the
        paper's metric) are unaffected.
        """
        report = EnergyReport()
        for counters in result.channel_counters:
            on_dimm = bool(counters.get("on_dimm"))
            report.activate_pj += (counters["activates"] *
                                   self.activate_energy_pj())
            report.read_write_pj += (
                counters["reads"] * self.burst_energy_pj(False) +
                counters["writes"] * self.burst_energy_pj(True))
            report.io_pj += self.io_energy_pj(
                counters["reads"] + counters["writes"], on_dimm)
        # main-bus messages of the SDIMM protocols cross the channel
        report.io_pj += self.io_energy_pj(result.main_bus_lines,
                                          on_dimm=False)
        for residency in result.rank_residencies:
            report.refresh_pj += (residency.get("refreshes", 0) *
                                  self.refresh_energy_pj())
            for state in ("active", "standby", "power-down",
                          "self-refresh"):
                cycles = residency.get(state, 0)
                # 1 mW * 1 ns = 1 pJ
                report.background_pj += (self.background_power_mw(state) *
                                         cycles * self._cpu_cycle_ns)
        report.detail["channel_count"] = float(
            len(result.channel_counters))
        return report

    def per_access_summary(self) -> Dict[str, float]:
        """Reference per-event energies, for documentation and tests."""
        return {
            "activate_pj": self.activate_energy_pj(),
            "read_burst_pj": self.burst_energy_pj(False),
            "write_burst_pj": self.burst_energy_pj(True),
            "refresh_pj": self.refresh_energy_pj(),
            "line_io_channel_pj": self.io_energy_pj(1, False),
            "line_io_on_dimm_pj": self.io_energy_pj(1, True),
        }
