"""Coverage for small public behaviours not exercised elsewhere."""

import numpy as np
import pytest

import repro
from repro import errors
from repro.geometry import Grid2D, Rect
from repro.power import MemoryState, PowerMap
from repro.rmesh import LayerMesh, StackModel
from repro.tech import MetalLayer, RouteDirection


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        error_types = [
            errors.ConfigurationError,
            errors.FloorplanError,
            errors.MeshError,
            errors.SolverError,
            errors.SimulationError,
            errors.RequestRangeError,
            errors.RegressionError,
            errors.OptimizationError,
        ]
        for err in error_types:
            assert issubclass(err, errors.ReproError)
            assert issubclass(err, Exception)

    def test_request_range_is_a_simulation_error(self):
        assert issubclass(errors.RequestRangeError, errors.SimulationError)

    def test_catch_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.MeshError("x")


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name


class TestGeometryCorners:
    def test_corners_ccw(self):
        c = Rect(0, 0, 2, 1).corners()
        assert [(p.x, p.y) for p in c] == [(0, 0), (2, 0), (2, 1), (0, 1)]

    def test_perimeter_walk_wraps(self):
        r = Rect(0, 0, 2, 1)
        x, y = r._point_at_perimeter(2.0 * (r.width + r.height))  # full loop
        assert (x, y) == (pytest.approx(0.0), pytest.approx(0.0))

    def test_degenerate_rect_edge_points(self):
        r = Rect(1, 1, 1, 1)
        pts = r.edge_points(0.5)
        assert pts.tolist() == [[1.0, 1.0]]


class TestPowerMapLayout:
    def test_flat_matches_grid_ids(self):
        """flat() must follow the grid's flat-id order (j * nx + i), the
        contract the solver relies on when mapping loads to nodes."""
        grid = Grid2D(Rect(0, 0, 2, 1), nx=4, ny=2)
        pmap = PowerMap.zeros(grid)
        # Put power in one known cell.
        pmap.current[1, 2] = 0.5
        flat = pmap.flat()
        assert flat[grid.node_id(2, 1)] == pytest.approx(0.5)
        assert flat.sum() == pytest.approx(0.5)


class TestStackModelUniformCoupling:
    def test_couples_via_coarser_layer(self):
        """Uniform coupling between a 1-node plane and a multi-node line
        places one link per plane node (the coarser side)."""
        model = StackModel()
        plane = LayerMesh(
            Grid2D(Rect(0, 0, 4, 1), 1, 1),
            gx=np.zeros((1, 0)),
            gy=np.zeros((0, 1)),
            name="plane",
        )
        line = LayerMesh(
            Grid2D(Rect(0, 0, 4, 1), nx=4, ny=1),
            gx=np.full((1, 3), 1.0),
            gy=np.zeros((0, 4)),
            name="line",
        )
        k1 = model.add_layer("p", plane)
        k2 = model.add_layer("l", line)
        model.connect_layers_uniform(k1, k2, conductance_per_mm2=1.0)
        _, _, g = model.link_arrays()
        assert g.tolist() == [pytest.approx(4.0)]  # 4 mm^2 * 1 S/mm^2


class TestResultHelpers:
    def test_per_die_max_mv(self, ddr3_stack, ddr3_floorplan):
        state = MemoryState.from_string("0-0-0-2", ddr3_floorplan)
        res = ddr3_stack.solve_state(state)
        per_die = res.raw.per_die_max_mv()
        assert "package" in per_die  # raw view includes every die group
        for name in ddr3_stack.dram_die_names:
            assert per_die[name] == pytest.approx(res.per_die_mv[name])

    def test_state_str_contains_label(self, ddr3_stack, ddr3_floorplan):
        state = MemoryState.from_string("0-0-2b-2a", ddr3_floorplan)
        text = str(ddr3_stack.solve_state(state))
        assert "0-0-2-2" in text and "mV" in text


class TestMetalLayerDefaults:
    def test_power_capable_default(self):
        layer = MetalLayer("M", 0.1, RouteDirection.BOTH)
        assert layer.power_capable
