"""Electrical models of vertical and packaging elements.

Each element is reduced to the resistance a DC solve needs:

* PG TSVs (through-silicon vias) including their microbump,
* dedicated via-last TSVs (paper section 3.1: lower resistance, but they
  penetrate the logic die),
* C4 bumps between the bottom die and the package,
* F2F bond vias (dense face-to-face connections enabling PDN sharing,
  paper section 4.2),
* the redistribution layer (RDL, thick backside metal),
* backside bond wires (paper section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tech.metals import MetalLayer, RouteDirection


def _require_positive(name: str, value: float) -> None:
    if value <= 0.0:
        raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class TSVTech:
    """A PG through-silicon via plus its microbump.

    Parameters
    ----------
    resistance:
        Series resistance of one TSV + microbump, ohm.
    keepout:
        Keep-out-zone half-width around the TSV, mm (cost/floorplan impact,
        paper section 3.3: "large keep-out zones must be inserted around
        TSVs to avoid stress and noise issues").
    via_last:
        Via-last (dedicated) TSVs have lower resistance because they are
        fabricated after BEOL and can be larger (paper section 3.1).
    """

    resistance: float
    keepout: float = 0.02
    via_last: bool = False

    def __post_init__(self) -> None:
        _require_positive("TSV resistance", self.resistance)
        if self.keepout < 0.0:
            raise ValueError(f"keepout must be >= 0, got {self.keepout}")

    @property
    def conductance(self) -> float:
        return 1.0 / self.resistance

    def series(self, count: int) -> float:
        """Resistance of ``count`` TSVs stacked in series (B2B bonding)."""
        if count < 1:
            raise ValueError("series TSV count must be >= 1")
        return self.resistance * count


@dataclass(frozen=True)
class C4Tech:
    """C4 bump (or BGA ball) field connecting a die to the package.

    ``pitch`` controls how many bumps fit and therefore the TSV alignment
    study (paper section 3.2).  ``detour_res_per_mm`` models the lateral
    resistance of the escape routing between a misaligned TSV landing and
    its nearest bump.
    """

    resistance: float
    pitch: float
    detour_res_per_mm: float

    def __post_init__(self) -> None:
        _require_positive("C4 resistance", self.resistance)
        _require_positive("C4 pitch", self.pitch)
        if self.detour_res_per_mm < 0.0:
            raise ValueError("detour resistance must be >= 0")

    @property
    def conductance(self) -> float:
        return 1.0 / self.resistance

    def detour_resistance(self, distance: "float | np.ndarray") -> "float | np.ndarray":
        """Extra series resistance for a TSV landing ``distance`` mm from
        its nearest C4 bump (Manhattan distance; elementwise on arrays)."""
        if np.any(np.less(distance, 0.0)):
            raise ValueError("distance must be >= 0")
        return self.detour_res_per_mm * distance


@dataclass(frozen=True)
class F2FViaTech:
    """Face-to-face bond vias.

    F2F vias "can be placed almost everywhere" (paper section 4.2); the
    model is a per-area via density with a per-via resistance, reduced to
    an area conductance density (S/mm^2) so meshes of any pitch see the
    same total coupling.
    """

    via_resistance: float
    density: float  # vias per mm^2

    def __post_init__(self) -> None:
        _require_positive("F2F via resistance", self.via_resistance)
        _require_positive("F2F via density", self.density)

    @property
    def conductance_per_mm2(self) -> float:
        return self.density / self.via_resistance


@dataclass(frozen=True)
class RDLTech:
    """Redistribution layer: thick backside metal.

    "Unlike routing layers fabricated using the silicon process, the RDL is
    much thicker and allows non-manhattan routing.  With a much lower
    resistivity ... it is suitable to deliver power to the edge of DRAM
    chips at lower cost" (paper section 3.3).  The RDL still adds series
    resistance compared to direct edge TSVs, which is why option (c) in
    Table 2 loses to option (a).
    """

    sheet_res: float
    usage: float = 0.6  # RDL is mostly power; fixed, not a design knob

    def __post_init__(self) -> None:
        _require_positive("RDL sheet resistance", self.sheet_res)
        if not 0.0 < self.usage <= 1.0:
            raise ValueError(f"RDL usage must be in (0, 1], got {self.usage}")

    def as_layer(self) -> MetalLayer:
        """The RDL viewed as a mesh layer (non-manhattan => isotropic)."""
        return MetalLayer(
            name="RDL", sheet_res=self.sheet_res, direction=RouteDirection.BOTH
        )


@dataclass(frozen=True)
class WireBondTech:
    """Backside bond wires from the package to the top die (section 4.1).

    ``group_resistance`` is the lumped resistance of one edge group of
    parallel bond wires (wire + backside pad + PG TSV entry), and
    ``groups_per_edge`` how many such groups are distributed along each die
    edge.
    """

    group_resistance: float
    groups_per_edge: int = 4

    def __post_init__(self) -> None:
        _require_positive("wire bond group resistance", self.group_resistance)
        if self.groups_per_edge < 1:
            raise ValueError("groups_per_edge must be >= 1")

    @property
    def group_conductance(self) -> float:
        return 1.0 / self.group_resistance
