"""TSV, bump and wire-bond placement plus the C4 alignment model.

Placement generators return the points for a die outline as ``(n, 2)``
arrays of ``(x, y)`` rows.
The alignment model (paper section 3.2) measures, for every TSV, the
Manhattan distance to the nearest C4 bump of a regular bump field; the
detour resistance of that escape route is charged in series with the TSV.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.floorplan.blocks import BlockType
from repro.geometry import Rect
from repro.pdn.config import PDNConfig, TSVLocation
from repro.tech.vertical import C4Tech


def _cluster_grid(region: Rect, count: int) -> np.ndarray:
    """``count`` points on a near-square grid filling ``region``."""
    if count < 1:
        raise ConfigurationError("need at least one TSV")
    aspect = region.width / region.height if region.height > 0 else 1.0
    cols = max(1, int(round(math.sqrt(count * aspect))))
    rows = max(1, math.ceil(count / cols))
    # Center the grid; rows fill bottom-up.
    r, c = np.divmod(np.arange(count), cols)
    return np.column_stack(
        (
            region.x0 + (c + 0.5) * region.width / cols,
            region.y0 + (r + 0.5) * region.height / rows,
        )
    )


#: TSV placement pitch inside a center cluster (TSV + keep-out zone), mm.
CENTER_CLUSTER_PITCH = 0.45


def center_tsv_points(
    outline: Rect, count: int, tsv_pitch: "float | None" = None
) -> np.ndarray:
    """Group all TSVs into a cluster at the die center (section 3.3:
    "center TSV ... does not block routing on the logic die").

    The cluster's physical size follows from the TSV pitch: ``count`` TSVs
    occupy a roughly square region of side ``sqrt(count) * tsv_pitch``
    (capped at 60% of the die).  Small TSV counts therefore crowd all the
    supply current through a tiny region -- part of why the cheapest
    configurations of Table 9 have such poor IR drop.
    """
    if tsv_pitch is None:
        tsv_pitch = CENTER_CLUSTER_PITCH
    side = math.sqrt(max(count, 1)) * tsv_pitch
    width = min(side, 0.6 * outline.width)
    height = min(side, 0.6 * outline.height)
    region = Rect.centered(outline.center, width, height)
    return _cluster_grid(region, count)


def edge_tsv_points(outline: Rect, count: int, inset: float = 0.25) -> np.ndarray:
    """Ring of TSVs along the die perimeter (section 3.3 edge TSVs,
    after [Kang et al., JSSC'10])."""
    ring = outline.inset(inset)
    perimeter = 2.0 * (ring.width + ring.height)
    spacing = perimeter / max(count, 1)
    return ring.edge_points(spacing)[:count]


def distributed_tsv_points(
    outline: Rect,
    count: int,
    floorplan: "DieFloorplan | None" = None,
    inset: float = 0.3,
) -> np.ndarray:
    """Distribute TSVs across the die (HMC style, section 6.1).

    When the floorplan reserves TSV regions (HMC vaults), points are
    spread round-robin over those regions; otherwise a uniform grid over
    the (inset) die is used.
    """
    regions: Sequence[Rect] = ()
    if floorplan is not None:
        regions = [b.rect for b in floorplan.blocks_of_type(BlockType.TSV_REGION)]
    if not regions:
        return _cluster_grid(outline.inset(inset), count)
    per_region = [count // len(regions)] * len(regions)
    for k in range(count % len(regions)):
        per_region[k] += 1
    return np.concatenate(
        [_cluster_grid(region, n) for region, n in zip(regions, per_region) if n]
    )


def tsv_points_for_config(
    outline: Rect,
    config: PDNConfig,
    floorplan: "DieFloorplan | None" = None,
) -> np.ndarray:
    """TSV positions for a configuration's location style and count."""
    if config.tsv_location is TSVLocation.CENTER:
        return center_tsv_points(outline, config.tsv_count)
    if config.tsv_location is TSVLocation.EDGE:
        return edge_tsv_points(outline, config.tsv_count)
    return distributed_tsv_points(outline, config.tsv_count, floorplan)


def center_bump_points(outline: Rect, count: int) -> np.ndarray:
    """Bump cluster at the die center (JEDEC Wide I/O style)."""
    return center_tsv_points(outline, count)


def wirebond_points(outline: Rect, groups_per_edge: int, inset: float = 0.12) -> np.ndarray:
    """Backside wire-bond pad groups around the top die perimeter
    (section 4.1)."""
    ring = outline.inset(inset)
    perimeter = 2.0 * (ring.width + ring.height)
    count = 4 * groups_per_edge
    return ring.edge_points(perimeter / count)[:count]


# ---------------------------------------------------------------------------
# C4 alignment model
# ---------------------------------------------------------------------------


def nearest_c4_distance(points: np.ndarray, outline: Rect, pitch: float) -> np.ndarray:
    """Manhattan distance from each ``(x, y)`` point (an array of shape
    ``(..., 2)``) to the nearest bump of a regular C4 field of the given
    pitch anchored at the die's lower-left corner (bumps at half-pitch
    offsets, matching the mesh convention)."""
    if pitch <= 0.0:
        raise ConfigurationError("C4 pitch must be positive")
    points = np.asarray(points, dtype=float)

    def axis_dist(coord: np.ndarray, lo: float, hi: float) -> np.ndarray:
        # Bump rows at lo + (k + 0.5) * pitch, clamped inside the outline;
        # rint rounds half to even, like round().
        k = np.rint((coord - lo) / pitch - 0.5)
        k = np.clip(k, 0, max(int((hi - lo) / pitch) - 1, 0))
        return np.abs(coord - (lo + (k + 0.5) * pitch))

    return axis_dist(points[..., 0], outline.x0, outline.x1) + axis_dist(
        points[..., 1], outline.y0, outline.y1
    )


def alignment_detours(
    points: np.ndarray,
    outline: Rect,
    c4: C4Tech,
    aligned: bool,
) -> np.ndarray:
    """Per-TSV detour resistance (ohm) from the alignment model.

    ``aligned=True`` models the optimized placement of section 3.2
    ("carefully placing TSVs near C4 bumps ... reducing average C4-to-TSV
    distance"): the detour vanishes.  Otherwise each TSV pays the escape
    route to its nearest bump.
    """
    if aligned:
        return np.zeros(len(points))
    return c4.detour_resistance(nearest_c4_distance(points, outline, c4.pitch))


def mean_alignment_distance(
    points: np.ndarray, outline: Rect, pitch: float
) -> float:
    """Average C4-to-TSV Manhattan distance, mm (Figure 5 metric)."""
    if not len(points):
        return 0.0
    # Python's left-to-right sum, not numpy's pairwise one: Figure 5's
    # rows are pinned bitwise.
    return sum(nearest_c4_distance(points, outline, pitch).tolist()) / len(points)
