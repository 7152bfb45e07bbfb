"""Shared helpers for experiment drivers."""

from __future__ import annotations

from typing import Optional

from repro.designs import BenchmarkSpec, benchmark
from repro.pdn.config import PDNConfig
from repro.perf.cache import cached_build_stack
from repro.power.state import MemoryState
from repro.tech.calibration import DEFAULT_TECH


def solve_design(
    bench: BenchmarkSpec,
    config: PDNConfig,
    state: MemoryState,
    pitch: Optional[float] = None,
):
    """Build a stack for (benchmark, config) and solve one state.

    Stacks come from the keyed solver cache: experiments that revisit a
    configuration (e.g. the same baseline across many states) reuse the
    assembled network and its factorization.
    """
    stack = cached_build_stack(bench.stack, config, tech=DEFAULT_TECH, pitch=pitch)
    return stack.solve_state(state)


def explain_design(
    bench: BenchmarkSpec,
    config: PDNConfig,
    state: MemoryState,
    pitch: Optional[float] = None,
):
    """Build, solve, and diagnose one design point (``repro3d explain``).

    Returns a :class:`repro.pdn.diagnose.DesignDiagnosis`: branch
    currents recovered and KCL-checked, the worst-node supply path
    decomposed by component, and every branch attributed to its plan op.
    The stack comes from the same keyed cache as :func:`solve_design`,
    so explaining a design an experiment just solved reuses its
    factorization.
    """
    from repro.pdn.diagnose import diagnose_stack

    stack = cached_build_stack(bench.stack, config, tech=DEFAULT_TECH, pitch=pitch)
    return diagnose_stack(stack, state)


def ddr3_state(text: str) -> MemoryState:
    """Parse a stacked-DDR3 memory state string."""
    return MemoryState.from_string(
        text, benchmark("ddr3_off").stack.dram_floorplan
    )
