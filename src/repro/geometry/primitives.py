"""Points and axis-aligned rectangles.

Everything in the library lives on a 2D plane per die; the third dimension
is expressed as discrete layers (metal layers, dies).  ``Rect`` is the
workhorse: floorplan blocks, TSV keep-out zones, power-map regions and PG
ring extents are all rectangles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class Point:
    """A point in die coordinates (mm)."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other`` in mm."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def manhattan_to(self, other: "Point") -> float:
        """Manhattan (L1) distance to ``other`` in mm."""
        return abs(self.x - other.x) + abs(self.y - other.y)

    def translated(self, dx: float, dy: float) -> "Point":
        """Return a copy shifted by (dx, dy)."""
        return Point(self.x + dx, self.y + dy)

    def mirrored_x(self, axis_x: float) -> "Point":
        """Return the reflection of this point across the vertical line x=axis_x.

        Used to model F2F bonding, where one die of a pair is mirrored so
        that its face metals align with its partner's.
        """
        return Point(2.0 * axis_x - self.x, self.y)


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle [x0, x1] x [y0, y1] in mm.

    Degenerate (zero-area) rectangles are permitted: they model point-like
    objects such as a single TSV landing pad on a coarse grid.
    """

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise ValueError(
                f"Rect corners out of order: ({self.x0}, {self.y0}) .. "
                f"({self.x1}, {self.y1})"
            )

    @classmethod
    def from_size(cls, x0: float, y0: float, width: float, height: float) -> "Rect":
        """Build a rectangle from its lower-left corner and size."""
        return cls(x0, y0, x0 + width, y0 + height)

    @classmethod
    def centered(cls, center: Point, width: float, height: float) -> "Rect":
        """Build a rectangle centered on ``center``."""
        return cls(
            center.x - width / 2.0,
            center.y - height / 2.0,
            center.x + width / 2.0,
            center.y + height / 2.0,
        )

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)

    def contains(self, p: Point, tol: float = 0.0) -> bool:
        """True if ``p`` lies inside (or within ``tol`` of) this rectangle."""
        return (
            self.x0 - tol <= p.x <= self.x1 + tol
            and self.y0 - tol <= p.y <= self.y1 + tol
        )

    def intersects(self, other: "Rect") -> bool:
        """True if the two rectangles overlap (shared edges count)."""
        return not (
            other.x0 > self.x1
            or other.x1 < self.x0
            or other.y0 > self.y1
            or other.y1 < self.y0
        )

    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlapping rectangle, or None when disjoint."""
        if not self.intersects(other):
            return None
        return Rect(
            max(self.x0, other.x0),
            max(self.y0, other.y0),
            min(self.x1, other.x1),
            min(self.y1, other.y1),
        )

    def overlap_area(self, other: "Rect") -> float:
        """Area of the overlap with ``other`` (0.0 when disjoint)."""
        inter = self.intersection(other)
        return 0.0 if inter is None else inter.area

    def translated(self, dx: float, dy: float) -> "Rect":
        """Return a copy shifted by (dx, dy)."""
        return Rect(self.x0 + dx, self.y0 + dy, self.x1 + dx, self.y1 + dy)

    def mirrored_x(self, axis_x: float) -> "Rect":
        """Reflect across the vertical line x=axis_x (see Point.mirrored_x)."""
        return Rect(
            2.0 * axis_x - self.x1, self.y0, 2.0 * axis_x - self.x0, self.y1
        )

    def inset(self, margin: float) -> "Rect":
        """Shrink the rectangle by ``margin`` on every side.

        Raises ValueError if the margin would invert the rectangle.
        """
        return Rect(
            self.x0 + margin, self.y0 + margin, self.x1 - margin, self.y1 - margin
        )

    def corners(self) -> Tuple[Point, Point, Point, Point]:
        """The four corners, counter-clockwise from lower-left."""
        return (
            Point(self.x0, self.y0),
            Point(self.x1, self.y0),
            Point(self.x1, self.y1),
            Point(self.x0, self.y1),
        )

    def edge_points(self, spacing: float) -> np.ndarray:
        """Points along the rectangle boundary at roughly ``spacing``, as an
        ``(n, 2)`` array of ``(x, y)`` rows.

        Used to place edge TSVs and PG-ring taps.  The walk starts at the
        lower-left corner and proceeds counter-clockwise; the last segment
        may be shorter than ``spacing``.
        """
        if spacing <= 0.0:
            raise ValueError("spacing must be positive")
        perimeter = 2.0 * (self.width + self.height)
        if perimeter == 0.0:
            return np.array([[self.x0, self.y0]])
        n = max(1, int(round(perimeter / spacing)))
        step = perimeter / n
        return self._point_at_perimeter(np.arange(n) * step)

    def _point_at_perimeter(self, s: "float | np.ndarray") -> np.ndarray:
        """The ``(x, y)`` point(s) a distance ``s`` along the boundary,
        counter-clockwise: shape ``np.shape(s) + (2,)``."""
        w, h = self.width, self.height
        s = np.asarray(s, dtype=float)
        s = s % (2.0 * (w + h)) if (w + h) > 0 else np.zeros_like(s)
        # Distances past the bottom, right and top sides.
        s1 = s - w
        s2 = s1 - h
        s3 = s2 - w
        bottom, right, top = s <= w, s1 <= h, s2 <= w
        x = np.where(top, self.x1 - s2, self.x0)
        x = np.where(bottom, self.x0 + s, np.where(right, self.x1, x))
        y = np.where(top, self.y1, self.y1 - s3)
        y = np.where(bottom, self.y0, np.where(right, self.y0 + s1, y))
        return np.stack((x, y), axis=-1)
