"""DRAM device models: timing parameters and command timings."""

from repro.dram.timing import COMMANDS, CommandTiming, TimingParams

__all__ = [
    "COMMANDS",
    "CommandTiming",
    "TimingParams",
]
