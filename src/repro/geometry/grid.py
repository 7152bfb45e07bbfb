"""Uniform 2D grids used to discretize dies into mesh nodes.

A :class:`Grid2D` covers a die outline with ``nx`` x ``ny`` nodes placed at
cell centers.  Meshes, power maps and TSV snap logic all share this
discretization so that node indices line up between layers and dies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro.geometry.primitives import Point, Rect


@dataclass(frozen=True)
class Grid2D:
    """A uniform grid of ``nx`` x ``ny`` nodes over ``outline``.

    Nodes sit at cell centers: node (i, j) is at
    ``(x0 + (i + 0.5) * dx, y0 + (j + 0.5) * dy)``.  Index ``i`` runs along
    x (0 .. nx-1), ``j`` along y (0 .. ny-1).  The flat node id is
    ``j * nx + i`` (row-major in y), matching how conductance matrices are
    assembled in :mod:`repro.rmesh`.
    """

    outline: Rect
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"grid must have at least 1x1 nodes, got {self.nx}x{self.ny}")
        if self.outline.width <= 0.0 or self.outline.height <= 0.0:
            raise ValueError("grid outline must have positive area")

    @classmethod
    def from_pitch(cls, outline: Rect, pitch: float) -> "Grid2D":
        """Build a grid with node spacing as close to ``pitch`` (mm) as possible.

        At least 2 nodes are used per dimension so every die has a
        non-degenerate mesh.
        """
        if pitch <= 0.0:
            raise ValueError("pitch must be positive")
        nx = max(2, int(round(outline.width / pitch)))
        ny = max(2, int(round(outline.height / pitch)))
        return cls(outline, nx, ny)

    @property
    def dx(self) -> float:
        """Cell width in mm."""
        return self.outline.width / self.nx

    @property
    def dy(self) -> float:
        """Cell height in mm."""
        return self.outline.height / self.ny

    @property
    def num_nodes(self) -> int:
        return self.nx * self.ny

    def node_id(self, i: int, j: int) -> int:
        """Flat node id for grid index (i, j)."""
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            raise IndexError(f"grid index ({i}, {j}) out of range {self.nx}x{self.ny}")
        return j * self.nx + i

    def node_index(self, node: int) -> Tuple[int, int]:
        """Inverse of :meth:`node_id`."""
        if not (0 <= node < self.num_nodes):
            raise IndexError(f"node id {node} out of range {self.num_nodes}")
        return node % self.nx, node // self.nx

    def node_point(self, i: int, j: int) -> Point:
        """Physical location (cell center) of node (i, j)."""
        return Point(
            self.outline.x0 + (i + 0.5) * self.dx,
            self.outline.y0 + (j + 0.5) * self.dy,
        )

    def nearest_node(self, p: Point) -> Tuple[int, int]:
        """Grid index of the node nearest to ``p`` (clamped to the grid)."""
        i = int((p.x - self.outline.x0) / self.dx)
        j = int((p.y - self.outline.y0) / self.dy)
        return min(max(i, 0), self.nx - 1), min(max(j, 0), self.ny - 1)

    def nodes_in_rect(self, rect: Rect) -> List[Tuple[int, int]]:
        """All grid indices whose node centers fall inside ``rect``."""
        result: List[Tuple[int, int]] = []
        for i, j in self.iter_indices():
            if rect.contains(self.node_point(i, j)):
                result.append((i, j))
        return result

    def cell_rect(self, i: int, j: int) -> Rect:
        """The rectangle of cell (i, j)."""
        return Rect(
            self.outline.x0 + i * self.dx,
            self.outline.y0 + j * self.dy,
            self.outline.x0 + (i + 1) * self.dx,
            self.outline.y0 + (j + 1) * self.dy,
        )

    def iter_indices(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all (i, j) indices in flat-id order."""
        for j in range(self.ny):
            for i in range(self.nx):
                yield i, j

    def coverage_fractions(self, rect: Rect) -> np.ndarray:
        """Fraction of each grid cell's area covered by ``rect``.

        Returns an (ny, nx) array in [0, 1].  This is the rasterization
        primitive used to spread a block's power over mesh nodes
        proportionally to geometric overlap, which keeps power totals exact
        regardless of grid resolution.

        Overlap is separable, ``h[j] * w[i]``, with cell edges computed as
        :meth:`cell_rect` does: bitwise the per-cell ``Rect.overlap_area``.
        Clipping only one of ``w``, ``h`` at 0.0 would leave ``-0.0``s.
        """
        frac = np.zeros((self.ny, self.nx))
        dx, dy = self.dx, self.dy
        x0, y0 = self.outline.x0, self.outline.y0
        # Only fill cells that can overlap, for speed on fine grids.
        i_lo = max(0, int((rect.x0 - x0) / dx) - 1)
        i_hi = min(self.nx, int((rect.x1 - x0) / dx) + 2)
        j_lo = max(0, int((rect.y0 - y0) / dy) - 1)
        j_hi = min(self.ny, int((rect.y1 - y0) / dy) + 2)
        i = np.arange(i_lo, i_hi)
        j = np.arange(j_lo, j_hi)
        w = np.minimum(x0 + (i + 1) * dx, rect.x1) - np.maximum(x0 + i * dx, rect.x0)
        h = np.minimum(y0 + (j + 1) * dy, rect.y1) - np.maximum(y0 + j * dy, rect.y0)
        overlap = np.outer(np.maximum(h, 0.0), np.maximum(w, 0.0))
        # Sized by i, j: a window left of the outline has i_hi < 0.
        frac[j_lo : j_lo + j.size, i_lo : i_lo + i.size] = overlap / (dx * dy)
        return frac
