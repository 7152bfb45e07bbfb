"""Geometry primitives: Point and Rect."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Point, Rect

coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
sizes = st.floats(min_value=0.1, max_value=50.0, allow_nan=False)


class TestPoint:
    def test_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_manhattan(self):
        assert Point(0, 0).manhattan_to(Point(3, 4)) == pytest.approx(7.0)

    def test_translated(self):
        p = Point(1.0, 2.0).translated(0.5, -0.5)
        assert (p.x, p.y) == (1.5, 1.5)

    def test_mirror(self):
        p = Point(1.0, 2.0).mirrored_x(3.0)
        assert (p.x, p.y) == (5.0, 2.0)

    @given(coords, coords, coords)
    def test_mirror_involution(self, x, y, axis):
        p = Point(x, y)
        assert p.mirrored_x(axis).mirrored_x(axis).x == pytest.approx(x)

    @given(coords, coords, coords, coords)
    def test_metric_inequalities(self, x1, y1, x2, y2):
        a, b = Point(x1, y1), Point(x2, y2)
        # Euclidean <= Manhattan <= sqrt(2) * Euclidean.
        assert a.distance_to(b) <= a.manhattan_to(b) + 1e-9
        assert a.manhattan_to(b) <= math.sqrt(2) * a.distance_to(b) + 1e-9


class TestRect:
    def test_corner_order_enforced(self):
        with pytest.raises(ValueError):
            Rect(1.0, 0.0, 0.0, 1.0)

    def test_from_size_and_props(self):
        r = Rect.from_size(1.0, 2.0, 3.0, 4.0)
        assert r.width == pytest.approx(3.0)
        assert r.height == pytest.approx(4.0)
        assert r.area == pytest.approx(12.0)
        assert (r.center.x, r.center.y) == (pytest.approx(2.5), pytest.approx(4.0))

    def test_centered(self):
        r = Rect.centered(Point(0.0, 0.0), 2.0, 4.0)
        assert (r.x0, r.y0, r.x1, r.y1) == (-1.0, -2.0, 1.0, 2.0)

    def test_contains(self):
        r = Rect(0, 0, 2, 2)
        assert r.contains(Point(1, 1))
        assert r.contains(Point(2, 2))  # boundary included
        assert not r.contains(Point(2.1, 1))
        assert r.contains(Point(2.05, 1), tol=0.1)

    def test_intersection(self):
        a = Rect(0, 0, 2, 2)
        b = Rect(1, 1, 3, 3)
        inter = a.intersection(b)
        assert inter == Rect(1, 1, 2, 2)
        assert a.overlap_area(b) == pytest.approx(1.0)

    def test_disjoint(self):
        a = Rect(0, 0, 1, 1)
        b = Rect(2, 2, 3, 3)
        assert not a.intersects(b)
        assert a.intersection(b) is None
        assert a.overlap_area(b) == 0.0

    def test_shared_edge_counts_as_intersecting(self):
        a = Rect(0, 0, 1, 1)
        b = Rect(1, 0, 2, 1)
        assert a.intersects(b)
        assert a.overlap_area(b) == pytest.approx(0.0)

    def test_inset(self):
        r = Rect(0, 0, 4, 4).inset(1.0)
        assert r == Rect(1, 1, 3, 3)
        with pytest.raises(ValueError):
            Rect(0, 0, 1, 1).inset(0.6)

    def test_mirror_preserves_area(self):
        r = Rect(0, 0, 2, 3)
        m = r.mirrored_x(5.0)
        assert m.area == pytest.approx(r.area)
        assert m.x0 == pytest.approx(8.0)
        assert m.x1 == pytest.approx(10.0)

    def test_edge_points_on_boundary(self):
        r = Rect(0, 0, 4, 2)
        pts = r.edge_points(0.5)
        assert pts.shape == (24, 2)  # perimeter 12 / 0.5
        for x, y in pts:
            on_x = math.isclose(x, 0) or math.isclose(x, 4)
            on_y = math.isclose(y, 0) or math.isclose(y, 2)
            assert on_x or on_y

    def test_edge_points_bad_spacing(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 1, 1).edge_points(0.0)

    @given(coords, coords, sizes, sizes, coords, coords, sizes, sizes)
    def test_overlap_symmetric_and_bounded(self, x1, y1, w1, h1, x2, y2, w2, h2):
        a = Rect.from_size(x1, y1, w1, h1)
        b = Rect.from_size(x2, y2, w2, h2)
        assert a.overlap_area(b) == pytest.approx(b.overlap_area(a))
        assert a.overlap_area(b) <= min(a.area, b.area) + 1e-9

    @given(coords, coords, sizes, sizes, st.floats(min_value=0.2, max_value=5.0))
    def test_perimeter_walk_total(self, x, y, w, h, spacing):
        r = Rect.from_size(x, y, w, h)
        pts = r.edge_points(spacing)
        assert len(pts) >= 1
        # All points lie on the rectangle.
        for x, y in pts:
            assert r.contains(Point(x, y), tol=1e-9)
