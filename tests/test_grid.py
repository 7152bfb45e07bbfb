"""Grid2D: indexing, snapping, and rasterization conservation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry import Grid2D, Point, Rect


@pytest.fixture
def grid():
    return Grid2D(Rect(0, 0, 4, 2), nx=8, ny=4)


class TestConstruction:
    def test_spacing(self, grid):
        assert grid.dx == pytest.approx(0.5)
        assert grid.dy == pytest.approx(0.5)
        assert grid.num_nodes == 32

    def test_from_pitch(self):
        g = Grid2D.from_pitch(Rect(0, 0, 6.8, 6.7), 0.4)
        assert g.nx == 17
        assert g.ny == 17

    def test_from_pitch_minimum_two_nodes(self):
        g = Grid2D.from_pitch(Rect(0, 0, 0.3, 0.3), 1.0)
        assert g.nx == 2 and g.ny == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            Grid2D(Rect(0, 0, 1, 1), 0, 5)
        with pytest.raises(ValueError):
            Grid2D.from_pitch(Rect(0, 0, 1, 1), -1.0)


class TestIndexing:
    def test_node_id_roundtrip(self, grid):
        for i, j in grid.iter_indices():
            assert grid.node_index(grid.node_id(i, j)) == (i, j)

    def test_node_id_order(self, grid):
        # Flat ids are row-major in y.
        assert grid.node_id(0, 0) == 0
        assert grid.node_id(1, 0) == 1
        assert grid.node_id(0, 1) == grid.nx

    def test_out_of_range(self, grid):
        with pytest.raises(IndexError):
            grid.node_id(8, 0)
        with pytest.raises(IndexError):
            grid.node_index(32)

    def test_node_point_at_cell_center(self, grid):
        p = grid.node_point(0, 0)
        assert (p.x, p.y) == (pytest.approx(0.25), pytest.approx(0.25))

    def test_nearest_node_snaps_and_clamps(self, grid):
        assert grid.nearest_node(Point(0.3, 0.3)) == (0, 0)
        assert grid.nearest_node(Point(100, 100)) == (7, 3)
        assert grid.nearest_node(Point(-5, -5)) == (0, 0)

    def test_nodes_in_rect(self, grid):
        inside = grid.nodes_in_rect(Rect(0, 0, 1, 1))
        assert set(inside) == {(0, 0), (1, 0), (0, 1), (1, 1)}


class TestCoverage:
    def test_full_cover(self, grid):
        frac = grid.coverage_fractions(grid.outline)
        assert np.allclose(frac, 1.0)

    def test_partial_cell(self, grid):
        # A rect covering exactly half of cell (0, 0).
        frac = grid.coverage_fractions(Rect(0, 0, 0.25, 0.5))
        assert frac[0, 0] == pytest.approx(0.5)
        assert frac.sum() == pytest.approx(0.5)

    def test_conservation(self, grid):
        rect = Rect(0.3, 0.2, 2.7, 1.9)
        frac = grid.coverage_fractions(rect)
        covered = frac.sum() * grid.dx * grid.dy
        assert covered == pytest.approx(rect.area, rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=1.5),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.05, max_value=0.5),
    )
    def test_conservation_property(self, x0, y0, w, h):
        """Rasterized area equals geometric area for any interior rect."""
        grid = Grid2D(Rect(0, 0, 4, 2), nx=8, ny=4)
        rect = Rect(x0, y0, min(x0 + w, 4.0), min(y0 + h, 2.0))
        frac = grid.coverage_fractions(rect)
        covered = frac.sum() * grid.dx * grid.dy
        assert covered == pytest.approx(rect.area, abs=1e-9)
        assert np.all(frac >= 0.0) and np.all(frac <= 1.0 + 1e-12)


_GRIDS = (
    Grid2D(Rect(0, 0, 4, 2), nx=8, ny=4),
    Grid2D(Rect(-1.3, 0.7, 5.5, 7.4), nx=17, ny=17),
    Grid2D(Rect(0.1, 0.2, 0.4, 0.5), nx=3, ny=2),
)


def _reference_fractions(grid, rect):
    """Per-cell ``Rect.overlap_area`` over the whole grid."""
    frac = np.zeros((grid.ny, grid.nx))
    cell_area = grid.dx * grid.dy
    for i, j in grid.iter_indices():
        frac[j, i] = grid.cell_rect(i, j).overlap_area(rect) / cell_area
    return frac


def _edges(lo, n, step):
    """Two rect edges along one axis, each either exactly on a cell
    boundary (computed as ``cell_rect`` does) or anywhere up to 1.5 cells
    outside the outline; equal edges give a zero-width rect.  ``+ 0.0``
    folds a drawn ``-0.0`` into ``0.0``, since the loop itself would
    carry a negative-zero coordinate into the area's sign."""
    edge = st.one_of(
        st.integers(-1, n + 1).map(lambda k: lo + k * step),
        st.floats(lo - 1.5 * step, lo + (n + 1.5) * step),
    ).map(lambda v: v + 0.0)
    pair = st.tuples(edge, edge).map(sorted)
    return st.one_of(pair, edge.map(lambda v: (v, v)))


@st.composite
def _grid_rects(draw):
    grid = draw(st.sampled_from(_GRIDS))
    g = grid.outline
    x0, x1 = draw(_edges(g.x0, grid.nx, grid.dx))
    y0, y1 = draw(_edges(g.y0, grid.ny, grid.dy))
    return grid, Rect(x0, y0, x1, y1)


class TestCoverageBitwise:
    """The separable rasterizer is the per-cell overlap loop, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(_grid_rects())
    @example((_GRIDS[0], Rect(0.5, 0.5, 1.5, 1.0)))  # edges on cell boundaries
    @example((_GRIDS[0], Rect(-0.7, 1.2, 0.8, 2.9)))  # partly outside the outline
    @example((_GRIDS[0], Rect(4.0, 0.0, 5.0, 2.0)))  # touches the outline's edge
    @example((_GRIDS[0], Rect(1.0, 0.3, 1.0, 1.7)))  # zero width on a boundary
    @example((_GRIDS[0], Rect(0.3, 0.8, 2.2, 0.8)))  # zero height mid-cell
    @example((_GRIDS[1], Rect(-5.0, -5.0, -4.0, -4.0)))  # fully outside
    def test_equals_per_cell_overlap(self, grid_rect):
        grid, rect = grid_rect
        frac = grid.coverage_fractions(rect)
        ref = _reference_fractions(grid, rect)
        assert np.array_equal(frac.view(np.int64), ref.view(np.int64))
        assert not np.signbit(frac).any(), "negative zero in coverage"
