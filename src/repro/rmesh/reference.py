"""Golden reference solver and R-Mesh validation (paper Figure 4).

The paper validates its R-Mesh against Cadence Encounter Power System
(EPS): max IR drops of 32.2 mV (R-Mesh) vs 32.6 mV (EPS), a 1.3% error,
with a 517x speedup because the R-Mesh "does not perform parasitic
extraction from the layout and reduces the total resistor count".

Without the commercial tool, the golden reference here is the same
physics at a much finer discretization: the production R-Mesh coarsens
the PDN onto a ~0.4 mm grid, while the reference resolves ~0.13 mm --
an order of magnitude more resistors, playing exactly EPS's role of the
higher-fidelity, slower signoff model (DESIGN.md section 2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.power.state import MemoryState
from repro.pdn.stackup import PDNStack
from repro.tech.calibration import DEFAULT_TECH, TechConstants

#: Interleaved build+solve repeats per leg; the fastest of each counts.
TIMING_REPEATS = 3


@dataclass
class ValidationReport:
    """Coarse-vs-reference comparison for one memory state."""

    coarse_ir_mv: float
    reference_ir_mv: float
    coarse_time_s: float
    reference_time_s: float
    coarse_resistors: int
    reference_resistors: int

    @property
    def error_percent(self) -> float:
        """Relative max-IR error of the production mesh, %."""
        return abs(self.coarse_ir_mv - self.reference_ir_mv) / self.reference_ir_mv * 100.0

    @property
    def speedup(self) -> float:
        """Runtime ratio reference/coarse (the paper reports 517x; ours is
        bounded by the resistor-count ratio of the two discretizations)."""
        if self.coarse_time_s <= 0.0:
            return float("inf")
        return self.reference_time_s / self.coarse_time_s

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"R-Mesh {self.coarse_ir_mv:.2f} mV vs reference "
            f"{self.reference_ir_mv:.2f} mV ({self.error_percent:.1f}% error, "
            f"{self.speedup:.0f}x speedup, "
            f"{self.coarse_resistors} vs {self.reference_resistors} resistors)"
        )


def validate_against_reference(
    build: Callable[[Optional[float]], PDNStack],
    state: MemoryState,
    tech: TechConstants = DEFAULT_TECH,
    coarse_pitch: Optional[float] = None,
    reference_pitch: Optional[float] = None,
) -> ValidationReport:
    """Solve one state at production and reference resolution.

    ``build`` is a callable mapping a mesh pitch to a built stack (so the
    same design can be re-discretized); timings cover build+factorize+
    solve for each resolution, mirroring how the paper timed both tools
    end to end.  Each leg's time is the minimum over
    :data:`TIMING_REPEATS` interleaved repeats, so one scheduler stall
    cannot decide the speedup; every repeat solves the same network, so
    the IR values do not depend on the repeat count.
    """
    coarse_pitch = coarse_pitch or tech.mesh_pitch
    reference_pitch = reference_pitch or tech.reference_pitch

    coarse_time = reference_time = float("inf")
    for _ in range(TIMING_REPEATS):
        t0 = time.perf_counter()
        coarse = build(coarse_pitch)
        coarse_ir = coarse.dram_max_mv(state)
        coarse_time = min(coarse_time, time.perf_counter() - t0)

        t0 = time.perf_counter()
        reference = build(reference_pitch)
        reference_ir = reference.dram_max_mv(state)
        reference_time = min(reference_time, time.perf_counter() - t0)

    return ValidationReport(
        coarse_ir_mv=coarse_ir,
        reference_ir_mv=reference_ir,
        coarse_time_s=coarse_time,
        reference_time_s=reference_time,
        coarse_resistors=coarse.model.num_resistors,
        reference_resistors=reference.model.num_resistors,
    )
