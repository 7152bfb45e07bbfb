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

    Reads the keyed stack cache, so a design an earlier experiment kept
    (fig9's Table 7 cases, the table5/table6 baselines) reuses its
    factorization; a miss builds and solves once and is not kept.
    """
    stack = cached_build_stack(
        bench.stack, config, tech=DEFAULT_TECH, pitch=pitch, fill=False
    )
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
    Like :func:`solve_design` it reads the keyed stack cache and leaves
    no entry, so it reuses a factorization only where a stack-reusing
    experiment kept one.
    """
    from repro.pdn.diagnose import diagnose_stack

    stack = cached_build_stack(
        bench.stack, config, tech=DEFAULT_TECH, pitch=pitch, fill=False
    )
    return diagnose_stack(stack, state)


def ddr3_state(text: str) -> MemoryState:
    """Parse a stacked-DDR3 memory state string."""
    return MemoryState.from_string(
        text, benchmark("ddr3_off").stack.dram_floorplan
    )
