"""Transient RC extension: settling, decap behaviour, schedules."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError, SolverError
from repro.obs.trace import span_count
from repro.pdn.stackup import build_single_die_stack
from repro.power import MemoryState
from repro.power.model import DDR3_POWER
from repro.rmesh import backends
from repro.rmesh.transient import DecapConfig, TransientSolver

ROOT = Path(__file__).parent.parent
GOLDEN = ROOT / "tests" / "golden" / "transient_decap.json"


@pytest.fixture(scope="module")
def states(ddr3_floorplan):
    return {
        "idle": MemoryState.idle(4),
        "active": MemoryState.from_string("0-0-0-2", ddr3_floorplan),
    }


@pytest.fixture(scope="module")
def solver(ddr3_stack):
    return TransientSolver(ddr3_stack, DecapConfig(), dt_ns=1.0)


class TestConfig:
    def test_validation(self, ddr3_stack):
        with pytest.raises(ConfigurationError):
            DecapConfig(die_nf_per_mm2=-1.0)
        with pytest.raises(ConfigurationError):
            TransientSolver(ddr3_stack, dt_ns=0.0)

    def test_empty_schedule_rejected(self, solver):
        with pytest.raises(ConfigurationError):
            solver.simulate([])

    def test_nonpositive_duration_rejected(self, solver, states):
        with pytest.raises(ConfigurationError):
            solver.simulate([(states["active"], 0.0)])


class TestStepResponse:
    def test_settles_to_dc(self, solver, ddr3_stack, states):
        """The RC step response converges to the DC solve."""
        dc = ddr3_stack.dram_max_mv(states["active"])
        res = solver.step_response(states["active"], duration_ns=400.0)
        assert res.final_mv == pytest.approx(dc, rel=0.02)
        # RC networks approach monotonically: no overshoot beyond DC.
        assert res.peak_mv <= dc * 1.02

    def test_monotone_rise(self, solver, states):
        res = solver.step_response(states["active"], duration_ns=200.0)
        diffs = np.diff(res.dram_max_mv)
        assert np.all(diffs >= -1e-6)

    def test_initial_droop_suppressed_by_decap(self, ddr3_stack, states):
        """Right after the step, a bigger decap holds the rail up."""
        small = TransientSolver(
            ddr3_stack, DecapConfig(die_nf_per_mm2=0.01, package_uf=0.05), dt_ns=1.0
        )
        big = TransientSolver(
            ddr3_stack, DecapConfig(die_nf_per_mm2=1.0, package_uf=5.0), dt_ns=1.0
        )
        early_small = small.step_response(states["active"], 10.0).dram_max_mv[2]
        early_big = big.step_response(states["active"], 10.0).dram_max_mv[2]
        assert early_big < early_small

    def test_settling_time_grows_with_decap(self, ddr3_stack, states):
        fast = TransientSolver(
            ddr3_stack, DecapConfig(die_nf_per_mm2=0.02, package_uf=0.1), dt_ns=1.0
        )
        slow = TransientSolver(
            ddr3_stack, DecapConfig(die_nf_per_mm2=1.0, package_uf=5.0), dt_ns=1.0
        )
        t_fast = fast.step_response(states["active"], 500.0).settling_time_ns()
        t_slow = slow.step_response(states["active"], 500.0).settling_time_ns()
        assert t_slow > t_fast


class TestBurst:
    def test_short_burst_peak_below_dc(self, ddr3_stack, states):
        """A brief activation burst never reaches the DC droop: the decap
        sources the transient charge -- the AC benefit the paper credits
        to the decoupling capacitors behind the bond wires."""
        solver = TransientSolver(
            ddr3_stack, DecapConfig(die_nf_per_mm2=3.0, package_uf=5.0), dt_ns=1.0
        )
        dc = ddr3_stack.dram_max_mv(states["active"])
        burst = solver.simulate(
            [(states["idle"], 10.0), (states["active"], 8.0), (states["idle"], 50.0)]
        )
        assert burst.peak_mv < 0.8 * dc

    def test_recovery_after_burst(self, solver, states):
        res = solver.simulate(
            [(states["active"], 100.0), (states["idle"], 300.0)]
        )
        # After the load stops, the rail recovers toward the idle level.
        assert res.dram_max_mv[-1] < 0.2 * res.peak_mv

    def test_per_die_series_shapes(self, solver, states):
        res = solver.step_response(states["active"], 50.0)
        assert set(res.per_die_mv) == {"dram1", "dram2", "dram3", "dram4"}
        for series in res.per_die_mv.values():
            assert series.shape == res.times_ns.shape

    def test_v0_shape_checked(self, solver, states):
        with pytest.raises(SolverError):
            solver.simulate([(states["active"], 10.0)], v0=np.zeros(3))


def test_single_die_step_response_settles(ddr3_floorplan):
    """A one-die stack has the package plane too: the bulk capacitor is
    placed and the step response settles to the DC solve."""
    stack = build_single_die_stack(ddr3_floorplan, DDR3_POWER)
    state = MemoryState.from_counts((2,), ddr3_floorplan)
    solver = TransientSolver(stack, DecapConfig(), dt_ns=1.0)
    plane = stack.model.layer_slice("package/plane")
    assert solver.cap[plane.start] >= DecapConfig().package_uf * 1e-6
    res = solver.step_response(state, duration_ns=400.0)
    assert set(res.per_die_mv) == {"dram1"}
    assert res.final_mv == pytest.approx(stack.dram_max_mv(state), rel=0.02)


def test_cg_steps_warm_start_from_previous_step(ddr3_stack, states, monkeypatch):
    """On ``cg`` every time step is a traced CG solve seeded with the
    previous step's drops."""
    monkeypatch.setenv("REPRO_SOLVER", "cg")
    monkeypatch.setenv(backends.TRACE_EVERY_ENV, "1")
    mark = span_count()
    solver = TransientSolver(ddr3_stack, DecapConfig(), dt_ns=1.0)
    solver.step_response(states["active"], duration_ns=5.0)
    traces = backends.traces(since=mark)
    assert len(traces) == 5
    assert all(t.backend == "cg" and t.warm_start for t in traces)


def _decap_matrix():
    """``run_matrix()`` of the transient-decap bench, keyed like the golden."""
    path = ROOT / "benchmarks" / "bench_transient_decap.py"
    spec = importlib.util.spec_from_file_location("bench_transient_decap", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {
        f"wire_bond={wb}/{decap}": row
        for (wb, decap), row in module.run_matrix().items()
    }


def test_decap_matrix_bitwise_on_direct(monkeypatch):
    """The backward-Euler operator built through ``make_operator`` gives
    bitwise the (peak, DC) pairs recorded with the former private SuperLU
    factorization."""
    monkeypatch.setenv("REPRO_SOLVER", "direct")
    golden = json.loads(GOLDEN.read_text())
    got = {
        key: {name: value.hex() for name, value in row.items()}
        for key, row in _decap_matrix().items()
    }
    assert got == golden


def test_decap_matrix_on_cg_within_1e9(monkeypatch):
    monkeypatch.setenv("REPRO_SOLVER", "cg")
    golden = json.loads(GOLDEN.read_text())
    got = _decap_matrix()
    assert set(got) == set(golden)
    for key, row in got.items():
        for name, value in row.items():
            expected = float.fromhex(golden[key][name])
            assert value == pytest.approx(expected, rel=1e-9), f"{key}/{name}"
