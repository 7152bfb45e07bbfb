"""The one linear solve and the solve-path edges of ``StackSolver``.

Covers :func:`repro.rmesh.backends.make_operator` (the SuperLU
factorization every DC and transient solve goes through) and the
``IRDropResult`` / ``SolverError`` paths of :mod:`repro.rmesh.solve`:
input checks, batched-solve layout and chunk-wise bitwise contract, residual
sampling, and the heat-map helpers.  Solves run on the stacked-DDR3
baseline (``ddr3_stack``).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.errors import SolverError
from repro.geometry import Point
from repro.obs import metrics as obs_metrics
from repro.perf.cache import cached_build_stack, clear_caches
from repro.power.state import MemoryState
from repro.rmesh import solve as solve_mod
from repro.rmesh.backends import make_operator
from repro.rmesh.solve import IRDropResult, StackSolver


def _spd_matrix(n: int = 16) -> sp.csc_matrix:
    """A tiny SPD test system (1-D resistor chain grounded at node 0)."""
    main = np.full(n, 2.0)
    main[0] += 1.0  # supply link -> nonsingular
    off = np.full(n - 1, -1.0)
    return sp.diags([off, main, off], [-1, 0, 1], format="csc")


@pytest.fixture(scope="module")
def workload(ddr3_stack, ddr3_off_bench):
    """The baseline stack's model, reference-state currents and top
    DRAM die's load layer."""
    state = ddr3_off_bench.reference_state()
    currents = ddr3_stack.solver.currents_from_maps(ddr3_stack.power_maps(state))
    load_key = ddr3_stack.load_layer_key(ddr3_stack.spec.num_dram_dies - 1)
    return SimpleNamespace(
        model=ddr3_stack.model,
        currents=currents,
        num_nodes=ddr3_stack.model.num_nodes,
        load_key=load_key,
        grid=ddr3_stack.model.layer_grid(load_key),
    )


@pytest.fixture(scope="module")
def solver(workload):
    """A solver of its own: tests that count solves need a fresh
    sampling period, not the stack's shared one."""
    return StackSolver(workload.model)


# -- make_operator ------------------------------------------------------------


def test_make_operator_direct():
    matrix = _spd_matrix()
    op = make_operator(matrix)
    assert isinstance(op, spla.SuperLU)
    rhs = np.linspace(1.0, 2.0, matrix.shape[0])
    np.testing.assert_allclose(matrix @ op.solve(rhs), rhs)


def test_make_operator_rejects_singular_matrix():
    singular = sp.diags([1.0, 0.0, 1.0], format="csc")
    with pytest.raises(SolverError) as err:
        make_operator(singular)
    assert err.value.context["num_nodes"] == 3


# -- SolverError paths --------------------------------------------------------


def test_solve_currents_shape_mismatch(workload, solver):
    with pytest.raises(SolverError):
        solver.solve_currents(np.zeros(workload.num_nodes + 1))


def test_solve_currents_rejects_negative_loads(workload, solver):
    bad = workload.currents.copy()
    bad[0] = -1e-3
    with pytest.raises(SolverError) as err:
        solver.solve_currents(bad)
    assert "negative" in str(err.value)


def test_solve_currents_rejects_nonfinite_drops(workload, monkeypatch):
    solver = StackSolver(workload.model)
    n = workload.num_nodes
    monkeypatch.setattr(
        solver, "_lu", SimpleNamespace(solve=lambda rhs: np.full(n, np.nan))
    )
    with pytest.raises(SolverError) as err:
        solver.solve_currents(workload.currents)
    assert "non-finite" in str(err.value)


def test_solve_block_shape_checks(workload, solver):
    with pytest.raises(SolverError):
        solver.solve_block(workload.currents)  # 1-D
    with pytest.raises(SolverError):
        solver.solve_block(np.zeros((workload.num_nodes + 1, 2)))
    with pytest.raises(SolverError):
        solver.solve_block(np.full((workload.num_nodes, 2), -1e-3))


def test_solve_block_empty_batch(workload, solver):
    block = solver.solve_block(np.empty((workload.num_nodes, 0)))
    assert block.shape == (workload.num_nodes, 0)
    assert solver.solve_many(np.empty((workload.num_nodes, 0))) == []


# -- batched solves: layout and bitwise contract ------------------------------


def _current_batch(workload, k: int = 3) -> np.ndarray:
    return np.column_stack(
        [workload.currents * scale for scale in np.linspace(0.5, 1.5, k)]
    )


def test_solve_block_is_fortran_ordered(workload, solver):
    block = solver.solve_block(_current_batch(workload))
    assert block.flags.f_contiguous


def test_solve_block_matches_per_column_solves(workload, solver):
    batch = _current_batch(workload)
    block = solver.solve_block(batch)
    for i in range(batch.shape[1]):
        single = solver.solve_currents(batch[:, i])
        np.testing.assert_array_equal(block[:, i], single.drops)


def test_hmc_block_is_its_4_column_chunks_and_near_single_solves(paper_stacks):
    """A 16-column HMC block is not bitwise equal to single-column solves
    (SuperLU's multi-column kernels sum in another order).  Its contract
    is bitwise equality with its 4-column chunks solved on their own, and
    agreement with single solves to rounding."""
    bench, stack = paper_stacks["hmc"]
    fp = bench.stack.dram_floorplan
    solver = stack.solver
    rng = np.random.default_rng(24)
    states = [MemoryState.from_counts(rng.integers(1, 9, 4), fp) for _ in range(16)]
    currents = np.column_stack(
        [solver.currents_from_maps(stack.power_maps(s)) for s in states]
    )
    block = solver.solve_block(currents)
    chunks = [solver.solve_block(currents[:, i : i + 4]) for i in range(0, 16, 4)]
    assert np.array_equal(block, np.hstack(chunks))
    for i in range(16):
        single = solver.solve_currents(currents[:, i]).drops
        gap = np.max(np.abs(block[:, i] - single))
        assert gap <= 1e-13 * np.max(np.abs(single))


def test_solve_many_returns_views_into_one_block(workload, solver):
    results = solver.solve_many(_current_batch(workload))
    bases = {id(r.drops.base) for r in results}
    assert results[0].drops.base is not None
    assert len(bases) == 1  # zero-copy columns of one shared block


# -- residual sampling --------------------------------------------------------


def _residual_count() -> int:
    hist = obs_metrics.snapshot()["histograms"].get("solver.residual_norm")
    return hist["count"] if hist else 0


def test_residual_gauge_is_sampled(workload):
    every = solve_mod.RESIDUAL_SAMPLE_EVERY
    assert every == 16
    solver = StackSolver(workload.model)
    before = _residual_count()
    for _ in range(every + 1):
        solver.solve_currents(workload.currents)
    assert _residual_count() - before == 2  # solves 0 and 16
    assert obs_metrics.get_gauge("solver.residual_norm") < 1e-8


def test_residual_every_one_restores_always_on(workload, monkeypatch):
    monkeypatch.setattr(solve_mod, "RESIDUAL_SAMPLE_EVERY", 1)
    solver = StackSolver(workload.model)
    before = _residual_count()
    for _ in range(3):
        solver.solve_currents(workload.currents)
    assert _residual_count() - before == 3


def test_cheap_counters_recorded_even_when_unsampled(workload):
    solver = StackSolver(workload.model)
    solver.solve_currents(workload.currents)  # solve 0 is sampled
    before = obs_metrics.snapshot()
    residuals = _residual_count()
    for _ in range(3):
        solver.solve_currents(workload.currents)
    delta = obs_metrics.diff(before, obs_metrics.snapshot())
    assert delta["counters"].get("solver.rhs_solved") == 3
    assert _residual_count() == residuals  # solves 1-3 unsampled


def test_sampling_rate_does_not_change_results(workload, monkeypatch):
    monkeypatch.setattr(solve_mod, "RESIDUAL_SAMPLE_EVERY", 1)
    always = StackSolver(workload.model).solve_currents(workload.currents)
    monkeypatch.setattr(solve_mod, "RESIDUAL_SAMPLE_EVERY", 1000)
    sampled = StackSolver(workload.model).solve_currents(workload.currents)
    np.testing.assert_array_equal(always.drops, sampled.drops)


# -- IRDropResult helpers -----------------------------------------------------


def test_worst_node_location_maps_back_to_grid(workload):
    model = workload.model
    top = workload.load_key
    drops = np.zeros(model.num_nodes)
    sl = model.layer_slice(top)
    drops[sl.start] = 1.0  # local node 0 -> grid (0, 0)
    result = IRDropResult(model=model, drops=drops, solve_time=0.0)
    key, point = result.worst_node_location()
    assert key == top
    origin = model.layer_origin(top)
    expected = workload.grid.node_point(0, 0)
    assert point == Point(expected.x + origin.x, expected.y + origin.y)


def test_ascii_heatmap_shape_and_intensity(workload, solver):
    result = solver.solve_currents(workload.currents)
    art = result.ascii_heatmap(workload.load_key)
    lines = art.splitlines()
    assert lines[0].startswith(f"{workload.load_key}: max ")
    assert len(lines) == 1 + workload.grid.ny  # header + one row per y
    assert all(len(line) == workload.grid.nx for line in lines[1:])
    assert "@" in art  # the peak cell saturates the scale


def test_ascii_heatmap_flat_field(workload):
    model = workload.model
    result = IRDropResult(
        model=model, drops=np.zeros(model.num_nodes), solve_time=0.0
    )
    art = result.ascii_heatmap(workload.load_key)
    body = art.splitlines()[1:]
    assert all(set(line) <= {" "} for line in body)


# -- solver caching on stacks -------------------------------------------------


def test_stack_caches_one_solver(ddr3_off_bench):
    clear_caches()
    stack = cached_build_stack(
        ddr3_off_bench.stack, ddr3_off_bench.baseline, pitch=0.8
    )
    solver = stack.solver
    assert stack.solver is solver
    # Every wrapper of the plan shares the assembled stack's factorization.
    assert stack.assembled.solver is solver
    clear_caches()
