"""DRAM command and state vocabulary shared across the timing model."""

from __future__ import annotations

import enum


class DramCommand(enum.Enum):
    """The DDR3 commands the timing model issues."""

    ACTIVATE = "ACT"
    PRECHARGE = "PRE"
    READ = "RD"
    WRITE = "WR"
    REFRESH = "REF"
    POWER_DOWN_ENTER = "PDE"
    POWER_DOWN_EXIT = "PDX"
    SELF_REFRESH_ENTER = "SRE"
    SELF_REFRESH_EXIT = "SRX"


class PowerState(enum.Enum):
    """Rank power states tracked for background-energy accounting."""

    ACTIVE_STANDBY = "active"          # at least one bank open, clocks on
    PRECHARGE_STANDBY = "standby"      # all banks closed, clocks on
    POWER_DOWN = "power-down"          # CKE low; the low-power scheme's state
    SELF_REFRESH = "self-refresh"


#: The states a rank must leave (``Rank.wake``) before it can be accessed.
PARKED = (PowerState.POWER_DOWN, PowerState.SELF_REFRESH)


class RowBufferOutcome(enum.Enum):
    """Classification of one column access against the bank's open row."""

    HIT = "hit"            # row already open: CAS only
    MISS = "miss"          # bank idle: RAS + CAS
    CONFLICT = "conflict"  # different row open: PRE + RAS + CAS
