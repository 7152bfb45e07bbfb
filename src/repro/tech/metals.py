"""Metal layer and metal stack descriptions.

Traditional DRAM technology uses three metal layers (paper section 4.2):
M1 for signal routing, M2 for mixed signal/power routing, and M3 for power
routing.  A layer is characterized by its sheet resistance and preferred
routing direction; the PDN usage fraction (how much of the layer's area is
VDD straps) is a *design* parameter and lives in
:class:`repro.pdn.config.PDNConfig`, not here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Tuple


class RouteDirection(enum.Enum):
    """Preferred routing direction of a metal layer.

    A layer routed horizontally carries current well along x but relies on
    the orthogonal layer (through vias) for y transport; ``BOTH`` models
    thick top metals and the RDL where non-preferred or even non-manhattan
    routing is allowed (paper section 3.3).
    """

    HORIZONTAL = "h"
    VERTICAL = "v"
    BOTH = "both"

    def direction_weights(self) -> Tuple[float, float]:
        """(x_weight, y_weight) conductance anisotropy factors.

        A strongly directional layer still has some cross-direction
        conductance through jogs and via stitching; 0.15 is a conventional
        figure for strap-style PDNs.
        """
        if self is RouteDirection.HORIZONTAL:
            return 1.0, 0.15
        if self is RouteDirection.VERTICAL:
            return 0.15, 1.0
        return 1.0, 1.0


@dataclass(frozen=True)
class MetalLayer:
    """One metal layer of a process stack.

    Parameters
    ----------
    name:
        Layer name, e.g. ``"M2"`` or ``"RDL"``.
    sheet_res:
        Sheet resistance of solid metal, ohm/square.
    direction:
        Preferred routing direction.
    power_capable:
        Whether the layer may carry PDN straps at all.  M1 in DRAM is
        signal-only (paper section 4.2), so its PDN usage is pinned to a
        small local-grid value regardless of configuration.
    """

    name: str
    sheet_res: float
    direction: RouteDirection
    power_capable: bool = True

    def __post_init__(self) -> None:
        if self.sheet_res <= 0.0:
            raise ValueError(f"sheet resistance must be positive, got {self.sheet_res}")

    def effective_sheet_res(self, usage: float) -> float:
        """Sheet resistance of the PDN on this layer at a given usage.

        ``usage`` is the area fraction of the layer devoted to VDD straps
        (paper section 2.2: "PDN wire resistance is modeled depending on
        the metal layer usage which is defined as the area percentage of
        VDD PDN on one layer").  A strap PDN occupying fraction ``u`` of
        the layer behaves like a solid sheet with resistance
        ``rho_sheet / u``.
        """
        if not 0.0 < usage <= 1.0:
            raise ValueError(f"usage must be in (0, 1], got {usage}")
        return self.sheet_res / usage


@dataclass(frozen=True)
class MetalStack:
    """An ordered list of metal layers, bottom (device side) first."""

    layers: Tuple[MetalLayer, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("a metal stack needs at least one layer")
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate layer names in stack: {names}")

    @property
    def names(self) -> List[str]:
        return [layer.name for layer in self.layers]

    @property
    def top(self) -> MetalLayer:
        """The face (bonding-side) layer."""
        return self.layers[-1]

    @property
    def bottom(self) -> MetalLayer:
        """The device-side layer where current loads attach."""
        return self.layers[0]

    def layer_index(self, name: str) -> int:
        """Index of the layer called ``name``."""
        for idx, layer in enumerate(self.layers):
            if layer.name == name:
                return idx
        raise KeyError(f"no layer named {name!r} in stack {self.names}")

    def by_name(self) -> Dict[str, MetalLayer]:
        """Mapping from layer name to layer."""
        return {layer.name: layer for layer in self.layers}
