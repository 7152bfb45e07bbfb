"""DRAM timing parameters.

The paper's memory controller simulator models "major DRAM read operation
timing parameters such as tCL, tRCD, tRP, tRAS, and tCCD" (section 2.3),
plus the JEDEC bank-activation limits tRRD and tFAW that the *standard*
read policy uses in place of real IR-drop knowledge (section 5.2: "a tRRD
of 8 and a tFAW of 32").

All values are in DRAM clock cycles; ``clock_mhz`` anchors them to wall
time.  Stacked DDR3 at 1600 Mbps/pin runs an 800 MHz clock (DDR), so the
paper's 109.3 us standard-policy runtime equals 87,440 cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import ConfigurationError

#: The commands the controller can issue, in the order the per-command
#: tables report them.  ``RD``/``WR`` are column commands; ``REF`` is the
#: per-die all-bank refresh.
COMMANDS: Tuple[str, ...] = ("ACT", "PRE", "RD", "WR", "REF")


@dataclass(frozen=True)
class CommandTiming:
    """Timing of one command, resolved from :class:`TimingParams`.

    ``latency`` is the cycle count until the command's effect completes
    (row open for ACT, bank idle for PRE, burst end for RD/WR, bank
    available for REF); ``bus_cycles`` is the data-bus occupancy (zero
    for non-column commands).  ``min_gap`` is the minimum spacing to the
    next *same* command on the same resource (tCCD for column commands).
    """

    name: str
    latency: int
    bus_cycles: int = 0
    min_gap: int = 1


@dataclass(frozen=True)
class TimingParams:
    """Read-path timing of one DRAM technology (cycles)."""

    clock_mhz: float
    tCL: int  # CAS latency: READ to first data
    tRCD: int  # ACT to READ
    tRP: int  # PRE to ACT
    tRAS: int  # ACT to PRE (minimum row-open time)
    tCCD: int  # READ to READ, same channel
    tRRD: int  # ACT to ACT (standard policy only)
    tFAW: int  # four-activate window (standard policy only)
    tWR: int  # write-back recovery before closing a row (section 2.2:
    #   "each row activation contains a write-back operation when the
    #   row is closed")
    burst_cycles: int  # data-bus occupancy of one read burst
    tCWL: int = 8  # write latency: WRITE command to first data
    tREFI: int = 6240  # average refresh interval (7.8 us at 800 MHz)
    tRFC: int = 208  # refresh cycle time (260 ns for a 4 Gb die)

    def __post_init__(self) -> None:
        if self.clock_mhz <= 0:
            raise ConfigurationError("clock must be positive")
        for name in ("tCL", "tRCD", "tRP", "tRAS", "tCCD", "tRRD", "tFAW", "tWR", "burst_cycles", "tCWL", "tREFI", "tRFC"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1 cycle")
        if self.tRAS < self.tRCD:
            raise ConfigurationError("tRAS must cover at least tRCD")

    @property
    def tRC(self) -> int:
        """Full row cycle: ACT to next ACT on the same bank."""
        return self.tRAS + self.tRP

    def cycles_to_us(self, cycles: int) -> float:
        """Convert a cycle count to microseconds."""
        return cycles / self.clock_mhz

    def command_table(self) -> Dict[str, CommandTiming]:
        """Explicit per-command timing table (ACT/PRE/RD/WR/REF).

        :meth:`command_duration_us` resolves commands through it for the
        per-command energy ledger.  The controller engine reads the
        ``tXX`` fields directly in its hot loop.
        """
        return {
            "ACT": CommandTiming("ACT", latency=self.tRCD, min_gap=self.tRRD),
            "PRE": CommandTiming("PRE", latency=self.tRP),
            "RD": CommandTiming(
                "RD",
                latency=self.tCL + self.burst_cycles,
                bus_cycles=self.burst_cycles,
                min_gap=self.tCCD,
            ),
            "WR": CommandTiming(
                "WR",
                latency=self.tCWL + self.burst_cycles,
                bus_cycles=self.burst_cycles,
                min_gap=self.tCCD,
            ),
            "REF": CommandTiming("REF", latency=self.tRFC, min_gap=self.tREFI),
        }

    def command_duration_us(self, command: str) -> float:
        """Wall-time footprint of one command (for energy accounting)."""
        table = self.command_table()
        if command not in table:
            raise ConfigurationError(
                f"unknown DRAM command {command!r}", known=COMMANDS
            )
        return self.cycles_to_us(table[command].latency)

    @classmethod
    def ddr3_1600(cls) -> "TimingParams":
        """DDR3-1600: 800 MHz clock, BL8 (4 clock data), JEDEC-typical
        latencies, and the paper's tRRD=8 / tFAW=32."""
        return cls(
            clock_mhz=800.0,
            tCL=11,
            tRCD=11,
            tRP=11,
            tRAS=28,
            tCCD=4,
            tRRD=8,
            tFAW=32,
            tWR=12,
            burst_cycles=4,
            tCWL=8,
            tREFI=6240,
            tRFC=208,
        )

    @classmethod
    def wideio_200(cls) -> "TimingParams":
        """Wide I/O SDR-200: 200 MHz clock, BL4 over a 128b channel."""
        return cls(
            clock_mhz=200.0,
            tCL=3,
            tRCD=6,
            tRP=6,
            tRAS=12,
            tCCD=2,
            tRRD=2,
            tFAW=10,
            tWR=4,
            burst_cycles=2,
            tCWL=2,
            tREFI=1560,  # 7.8 us at 200 MHz
            tRFC=52,
        )

    @classmethod
    def hmc_2500(cls) -> "TimingParams":
        """HMC-class: 1250 MHz internal clock, short bursts per vault."""
        return cls(
            clock_mhz=1250.0,
            tCL=17,
            tRCD=17,
            tRP=17,
            tRAS=42,
            tCCD=4,
            tRRD=8,
            tFAW=32,
            tWR=15,
            burst_cycles=4,
            tCWL=12,
            tREFI=9750,  # 7.8 us at 1250 MHz
            tRFC=325,
        )
