"""System configuration for the Secure DIMM reproduction.

Defaults follow Table II of the paper: a 1.6 GHz in-order core with a 2 MB
LLC, DDR3-1600 DRAM (Micron MT41J256M8-class x8 parts, 8 banks, 8 KB rows),
two DIMMs per channel with four ranks each, and Freecursive ORAM parameters
(Z = 4, 64 B blocks, 64 KB PLB, 5 recursive PosMaps, 21-cycle crypto).

All timing parameters are expressed in *memory-clock* cycles (800 MHz for
DDR3-1600); the simulator converts to CPU cycles using
``cpu_cycles_per_mem_cycle``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.utils.bitops import is_power_of_two


class DesignPoint(enum.Enum):
    """The memory-system designs evaluated in the paper (Figures 6-9).

    ``INDEP_SPLIT`` is the combination from Figure 7(e): two independent
    partitions, each striped 2-way with the Split protocol.
    """

    NONSECURE = "nonsecure"
    FREECURSIVE = "freecursive"
    INDEP_2 = "indep-2"
    SPLIT_2 = "split-2"
    INDEP_4 = "indep-4"
    SPLIT_4 = "split-4"
    INDEP_SPLIT = "indep-split"


@dataclass(frozen=True)
class DramTiming:
    """DDR3 timing parameters in memory-clock cycles (default: DDR3-1600)."""

    tck_ns: float = 1.25
    trcd: int = 11
    trp: int = 11
    tcl: int = 11
    tcwl: int = 8
    tras: int = 28
    trc: int = 39
    tburst: int = 4
    tccd: int = 4
    #: same-bank-group CAS spacing (DDR4's tCCD_L; equals tccd on DDR3)
    tccd_l: int = 4
    trtp: int = 6
    twr: int = 12
    twtr: int = 6
    trtrs: int = 2
    tfaw: int = 24
    trrd: int = 5
    trefi: int = 6240
    trfc: int = 88
    # Fast-exit precharge power-down (the low-power scheme keeps idle ranks
    # here; ~24 ns exit per the paper's DDR3 reference).
    txp: int = 5
    txpdll: int = 19

    def validate(self) -> None:
        if self.trc < self.tras + self.trp:
            raise ValueError("tRC must cover tRAS + tRP")
        for name in ("trcd", "trp", "tcl", "tburst"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class DramPower:
    """Micron-power-calculator style DDR3 current/energy parameters.

    Currents are per-device (x8) in mA at ``vdd`` volts; the energy model in
    :mod:`repro.energy.dram_power` converts them to pJ using the standard
    Micron formulas.  I/O energy distinguishes transfers that cross the main
    memory channel from transfers that stay on the DIMM between the secure
    buffer and the DRAM chips — the physical basis of SDIMM's energy win.
    """

    vdd: float = 1.5
    idd0: float = 95.0    # one ACT-PRE cycle pair
    idd2p: float = 12.0   # precharge power-down
    idd2n: float = 42.0   # precharge standby
    idd3p: float = 40.0   # active power-down
    idd3n: float = 45.0   # active standby
    idd4r: float = 180.0  # burst read
    idd4w: float = 185.0  # burst write
    idd5: float = 215.0   # refresh
    idd6: float = 12.0    # self refresh
    io_channel_pj_per_bit: float = 5.2
    io_on_dimm_pj_per_bit: float = 1.4

    def validate(self) -> None:
        if self.idd2p >= self.idd2n:
            raise ValueError("power-down current should be below standby")
        if self.io_on_dimm_pj_per_bit >= self.io_channel_pj_per_bit:
            raise ValueError("on-DIMM I/O must be cheaper than channel I/O")


@dataclass(frozen=True)
class DramOrganization:
    """Physical organization of one channel (Table II)."""

    dimms_per_channel: int = 2
    ranks_per_dimm: int = 4
    banks_per_rank: int = 8
    #: DDR4 groups banks; back-to-back CAS within a group pays tCCD_L
    bank_groups: int = 1
    rows_per_bank: int = 32768
    row_bytes: int = 8192
    devices_per_rank: int = 8      # data devices (the 9th is ECC)

    @property
    def ranks_per_channel(self) -> int:
        return self.dimms_per_channel * self.ranks_per_dimm

    @property
    def rank_bytes(self) -> int:
        return self.rows_per_bank * self.row_bytes * self.banks_per_rank

    @property
    def dimm_bytes(self) -> int:
        return self.rank_bytes * self.ranks_per_dimm

    @property
    def channel_bytes(self) -> int:
        return self.dimm_bytes * self.dimms_per_channel

    def validate(self) -> None:
        for name in ("dimms_per_channel", "ranks_per_dimm", "banks_per_rank",
                     "rows_per_bank", "row_bytes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not is_power_of_two(self.banks_per_rank):
            raise ValueError("banks_per_rank must be a power of two")
        if not is_power_of_two(self.row_bytes):
            raise ValueError("row_bytes must be a power of two")


@dataclass(frozen=True)
class OramConfig:
    """Path ORAM / Freecursive parameters (Table II)."""

    levels: int = 28               # tree levels, root inclusive (L28 = 32 GB)
    blocks_per_bucket: int = 4     # Z
    block_bytes: int = 64
    stash_capacity: int = 200
    cached_levels: int = 7         # on-chip ORAM cache of the top levels
    recursive_posmaps: int = 5
    plb_bytes: int = 64 * 1024
    plb_assoc: int = 8
    posmap_entries_per_block: int = 16   # leaf-ID entries packed per block
    crypto_latency_cycles: int = 21      # CPU cycles, Table II

    @property
    def leaf_count(self) -> int:
        return 1 << (self.levels - 1)

    @property
    def bucket_count(self) -> int:
        return (1 << self.levels) - 1

    @property
    def lines_per_bucket(self) -> int:
        """Cache lines per bucket: Z data blocks plus one metadata line."""
        return self.blocks_per_bucket + 1

    @property
    def path_lines(self) -> int:
        """Cache lines touched by one path read (uncached levels only)."""
        return (self.levels - self.cached_levels) * self.lines_per_bucket

    def with_levels(self, levels: int) -> "OramConfig":
        return replace(self, levels=levels)

    def validate(self) -> None:
        if self.levels < 2:
            raise ValueError("ORAM needs at least two levels")
        if self.cached_levels >= self.levels:
            raise ValueError("cannot cache all ORAM levels on chip")
        if self.blocks_per_bucket < 1:
            raise ValueError("Z must be at least 1")
        if not is_power_of_two(self.block_bytes):
            raise ValueError("block size must be a power of two")
        if self.stash_capacity < self.blocks_per_bucket * self.levels:
            raise ValueError("stash must hold at least one full path of blocks")


@dataclass(frozen=True)
class SdimmConfig:
    """Secure-DIMM parameters (Section III)."""

    probe_interval_mem_cycles: int = 8
    transfer_queue_capacity: int = 128    # 8 KB buffer / 64 B blocks
    drain_probability: float = 0.05       # p in the M/M/1/K analysis
    buffer_sram_bytes: int = 8 * 1024
    low_power_ranks: bool = True

    def validate(self) -> None:
        if self.probe_interval_mem_cycles <= 0:
            raise ValueError("probe interval must be positive")
        if not 0.0 <= self.drain_probability <= 1.0:
            raise ValueError("drain probability must be in [0, 1]")


@dataclass(frozen=True)
class CpuConfig:
    """Core and cache-hierarchy parameters (Table II)."""

    llc_bytes: int = 2 * 1024 * 1024
    llc_assoc: int = 8
    llc_line_bytes: int = 64
    llc_latency_cycles: int = 10
    cpu_cycles_per_mem_cycle: int = 2   # 1.6 GHz CPU / 800 MHz DDR3-1600 clock

    def validate(self) -> None:
        if self.llc_bytes % (self.llc_assoc * self.llc_line_bytes):
            raise ValueError("LLC size must be divisible by assoc * line size")


@dataclass(frozen=True)
class SchedulerConfig:
    """FR-FCFS scheduler parameters (Section IV-A)."""

    write_queue_capacity: int = 64
    write_drain_high: int = 40
    write_drain_low: int = 16

    def validate(self) -> None:
        if not 0 < self.write_drain_low <= self.write_drain_high:
            raise ValueError("drain watermarks must satisfy 0 < low <= high")
        if self.write_drain_high > self.write_queue_capacity:
            raise ValueError("drain-high cannot exceed queue capacity")


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration for one simulated design point."""

    design: DesignPoint = DesignPoint.FREECURSIVE
    channels: int = 1
    seed: int = 2018
    timing: DramTiming = field(default_factory=DramTiming)
    power: DramPower = field(default_factory=DramPower)
    organization: DramOrganization = field(default_factory=DramOrganization)
    oram: OramConfig = field(default_factory=OramConfig)
    sdimm: SdimmConfig = field(default_factory=SdimmConfig)
    cpu: CpuConfig = field(default_factory=CpuConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    oram_cache_enabled: bool = True
    refresh_enabled: bool = True

    @property
    def sdimm_count(self) -> int:
        """SDIMMs participating in the design (one per DIMM slot used)."""
        if self.design in (DesignPoint.NONSECURE, DesignPoint.FREECURSIVE):
            return 0
        return self.channels * self.organization.dimms_per_channel

    @property
    def effective_cached_levels(self) -> int:
        return self.oram.cached_levels if self.oram_cache_enabled else 0

    @property
    def total_memory_bytes(self) -> int:
        return self.channels * self.organization.channel_bytes

    def validate(self) -> None:
        if self.channels < 1:
            raise ValueError("need at least one channel")
        self.timing.validate()
        self.power.validate()
        self.organization.validate()
        self.oram.validate()
        self.sdimm.validate()
        self.cpu.validate()
        self.scheduler.validate()
        if self.design in (DesignPoint.INDEP_4, DesignPoint.SPLIT_4,
                           DesignPoint.INDEP_SPLIT) and self.sdimm_count < 4:
            raise ValueError(f"{self.design.value} requires 4 SDIMMs; "
                             f"configure 2 channels x 2 DIMMs")


def table2_config(design: DesignPoint = DesignPoint.FREECURSIVE,
                  channels: int = 1,
                  oram_cache_enabled: bool = True,
                  seed: int = 2018) -> SystemConfig:
    """The paper's Table II configuration for a given design point.

    The paper describes "a 28-layer ORAM system with 7-layer ORAM caching"
    for the 32 GB (2-channel) machine; we take the layer counts at face
    value (a single-channel, 16 GB system gets one fewer layer).  The timing
    tier never allocates tree storage, so the layer count is purely the
    path-length parameter the evaluation sweeps in Figure 11.
    """
    organization = DramOrganization()
    levels = 28 if channels >= 2 else 27
    config = SystemConfig(
        design=design,
        channels=channels,
        seed=seed,
        organization=organization,
        oram=OramConfig(levels=levels),
        oram_cache_enabled=oram_cache_enabled,
    )
    config.validate()
    return config


def small_config(design: DesignPoint = DesignPoint.FREECURSIVE,
                 channels: int = 1,
                 levels: int = 12,
                 oram_cache_enabled: bool = True,
                 seed: int = 2018) -> SystemConfig:
    """A scaled-down configuration for tests and quick experiments.

    Keeps every structural property of the Table II system (same Z, block
    size, recursion, scheduler) with a shallow tree so functional ORAM
    simulations run in milliseconds.
    """
    config = SystemConfig(
        design=design,
        channels=channels,
        seed=seed,
        oram=OramConfig(levels=levels, cached_levels=3, stash_capacity=200),
        oram_cache_enabled=oram_cache_enabled,
    )
    config.validate()
    return config


#: Designs evaluated per channel count in Figures 8 and 9.
SINGLE_CHANNEL_DESIGNS = (DesignPoint.INDEP_2, DesignPoint.SPLIT_2)
DOUBLE_CHANNEL_DESIGNS = (DesignPoint.INDEP_4, DesignPoint.SPLIT_4,
                          DesignPoint.INDEP_SPLIT)


def ddr4_timing() -> DramTiming:
    """DDR4-2400 timing parameters (extension beyond the paper's DDR3).

    The paper's footnote 1 notes that a DDR4 SDIMM needs a few extra pins
    because the LRDIMM data buffer is decomposed; electrically everything
    else carries over, so a DDR4 configuration only swaps the timing set.
    Parameters follow a DDR4-2400 CL17 part at tCK = 0.833 ns.
    """
    return DramTiming(
        tck_ns=0.833,
        trcd=17, trp=17, tcl=17, tcwl=12,
        tras=39, trc=56,
        tburst=4, tccd=4, tccd_l=6, trtp=9, twr=18, twtr=9, trtrs=2,
        tfaw=26, trrd=7,
        trefi=9360, trfc=420,
        txp=8, txpdll=29,
    )


def ddr4_organization() -> DramOrganization:
    """DDR4 channel organization: 4 bank groups of 4 banks."""
    return DramOrganization(banks_per_rank=16, bank_groups=4)
