"""The ordering split: symmetric-mode SuperLU for sampling, COLAMD elsewhere.

The design-space sampler factorizes each sampled stack with the
``"symmetric"`` ordering (``MMD_AT_PLUS_A`` + ``SymmetricMode``); every
other solve keeps SuperLU's default COLAMD.  Pinned here:

* the DC conductance matrix of every benchmark baseline is exactly
  symmetric (the premise of symmetric mode);
* on those baselines the symmetric ordering agrees with the default to
  1e-10 relative in the max drop, while the default path stays bitwise
  on ``tests/golden/ir_baseline.json``;
* a sampled stack's factorization never leaks into the shared caches: a
  cached build of a just-sampled config solves with the default
  ordering, bitwise equal to a cold build;
* within one sampling task the ordering is computed once per sparsity
  pattern (:class:`~repro.rmesh.backends.OrderingMemo`) and the memo dies
  with the task, so serial and parallel samples stay bitwise equal in
  any order; reused orderings agree with fresh ones to 1e-12 relative;
* session assembly of a task's points equals cold builds bitwise.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.designs import hmc, off_chip_ddr3, on_chip_ddr3, wide_io
from repro.errors import ConfigurationError
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.pdn import AssemblySession, build_stack
from repro.perf.cache import cached_build_stack, clear_caches
from repro.regress.model import (
    _eval_combo_chunk,
    config_from_parts,
    continuous_sample_grid,
    sample_design_space,
    valid_discrete_combos,
)
from repro.rmesh.backends import OrderingMemo, PermutedLU, make_operator
from repro.rmesh.solve import StackSolver
from repro.tech.calibration import DEFAULT_TECH

GOLDEN_IR = Path(__file__).parent / "golden" / "ir_baseline.json"

FACTORIES = {
    "ddr3_off": off_chip_ddr3,
    "ddr3_on": on_chip_ddr3,
    "wideio": wide_io,
    "hmc": hmc,
}


@pytest.fixture(scope="module")
def baselines():
    """``{key: (bench, stack)}``: each benchmark's baseline, built cold."""
    out = {}
    for key, factory in FACTORIES.items():
        bench = factory()
        out[key] = (bench, build_stack(bench.stack, bench.baseline))
    return out


def test_unknown_ordering_rejected(baselines):
    _, stack = baselines["ddr3_off"]
    with pytest.raises(ConfigurationError, match="unknown ordering"):
        make_operator(stack.model.conductance_matrix().tocsc(), ordering="amd")


@pytest.mark.parametrize("key", sorted(FACTORIES))
def test_conductance_matrix_is_exactly_symmetric(baselines, key):
    _, stack = baselines[key]
    matrix = stack.model.conductance_matrix().tocsc()
    assert abs(matrix - matrix.T).max() == 0.0


@pytest.mark.parametrize("key", sorted(FACTORIES))
def test_symmetric_ordering_matches_default(baselines, key):
    bench, stack = baselines[key]
    state = bench.reference_state()
    default = stack.solve_state(state)
    solver = StackSolver(stack.model, ordering="symmetric")
    symmetric = stack.solve_state(state, solver=solver)
    assert symmetric.dram_max_mv == pytest.approx(default.dram_max_mv, rel=1e-10)
    np.testing.assert_allclose(
        symmetric.raw.drops, default.raw.drops, rtol=1e-10, atol=1e-15
    )
    # The private solver did not replace the stack's shared one.
    assert stack.solver.ordering == "colamd"
    assert stack.solver is not solver


@pytest.mark.parametrize("key", sorted(FACTORIES))
def test_default_path_stays_bitwise_on_golden_ir(baselines, key):
    bench, stack = baselines[key]
    golden = json.loads(GOLDEN_IR.read_text())[f"{key}/baseline"]
    result = stack.solve_state(bench.reference_state())
    assert stack.solver.ordering == "colamd"
    assert result.dram_max_mv.hex() == golden["dram_max_mv"]
    assert {k: v.hex() for k, v in result.per_die_mv.items()} == golden["per_die_mv"]


def test_sampled_factorizations_stay_out_of_the_caches():
    bench = off_chip_ddr3()
    key = valid_discrete_combos(bench)[0]
    clear_caches()
    _trace.reset_trace()
    try:
        samples = sample_design_space(
            bench, m2_points=1, m3_points=1, tc_points=2, combos=[key], workers=1
        )
        orderings = [
            r.attrs["ordering"] for r in _trace.spans() if r.name == "solver.factorize"
        ]
        assert orderings == ["symmetric"] * len(samples)
        state = bench.reference_state()
        for sample in samples:
            cached = cached_build_stack(bench.stack, sample.config)
            result = cached.solve_state(state)
            assert cached.solver.ordering == "colamd"
            cold = build_stack(bench.stack, sample.config).solve_state(state)
            assert result.dram_max_mv.hex() == cold.dram_max_mv.hex()
            assert np.array_equal(result.raw.drops, cold.raw.drops)
            # ...and the sampled value is the symmetric solve of that point.
            assert sample.ir_mv == pytest.approx(result.dram_max_mv, rel=1e-10)
    finally:
        clear_caches()


# -- ordering reuse within a sampling task -------------------------------------


def _pattern(matrix):
    return (matrix.shape, matrix.indptr.tobytes(), matrix.indices.tobytes())


@pytest.fixture(scope="module")
def task():
    """One sampling task of stacked DDR3: a combo and a grid whose
    (M2, M3) points share a pattern per TSV count."""
    bench = off_chip_ddr3()
    key = valid_discrete_combos(bench)[0]
    grid = continuous_sample_grid(bench, m2_points=2, m3_points=2, tc_points=2)
    return bench, key, grid


def test_serial_then_parallel_samples_are_bitwise_equal(ddr3_off_bench):
    # A serial run first, in this process: an ordering memo that outlived
    # its task would be inherited by the forked workers and change bits.
    combos = valid_discrete_combos(ddr3_off_bench)[:2]
    kwargs = dict(m2_points=2, m3_points=2, tc_points=2, combos=combos)
    serial = sample_design_space(ddr3_off_bench, workers=1, **kwargs)
    parallel = sample_design_space(ddr3_off_bench, workers=2, **kwargs)
    assert [s.config for s in serial] == [s.config for s in parallel]
    assert [s.ir_mv.hex() for s in serial] == [s.ir_mv.hex() for s in parallel]


def test_one_fresh_ordering_per_pattern_in_a_task(task):
    bench, key, grid = task
    patterns = {
        _pattern(
            build_stack(bench.stack, config_from_parts(bench, key, *point))
            .model.conductance_matrix()
            .tocsc()
        )
        for point in grid
    }
    assert 1 < len(patterns) < len(grid)
    _trace.reset_trace()
    before = _metrics.get_counter("solver.orderings_reused")
    _eval_combo_chunk((bench, DEFAULT_TECH, None, key, grid))
    reused = [
        r.attrs["ordering_reused"]
        for r in _trace.spans()
        if r.name == "solver.factorize"
    ]
    assert len(reused) == len(grid)
    assert reused.count(False) == len(patterns)
    assert reused.count(True) == len(grid) - len(patterns)
    assert (
        _metrics.get_counter("solver.orderings_reused") - before
        == len(grid) - len(patterns)
    )


@pytest.fixture(scope="module")
def same_pattern_stacks(task):
    """Two points of the task at one TSV count: same pattern, new values."""
    bench, key, grid = task
    (m2a, m3a, tc), (m2b, m3b, _) = [p for p in grid if p[2] == grid[0][2]][:2]
    stacks = [
        build_stack(bench.stack, config_from_parts(bench, key, m2, m3, tc))
        for m2, m3 in ((m2a, m3a), (m2b, m3b))
    ]
    first, second = (s.model.conductance_matrix().tocsc() for s in stacks)
    assert _pattern(first) == _pattern(second)
    assert not np.array_equal(first.data, second.data)
    return bench, stacks


def test_reused_ordering_matches_fresh_factorization(same_pattern_stacks):
    bench, (first, second) = same_pattern_stacks
    state = bench.reference_state()
    memo = OrderingMemo()
    StackSolver(first.model, ordering="symmetric", orderings=memo)
    reused = StackSolver(second.model, ordering="symmetric", orderings=memo)
    assert isinstance(reused._lu, PermutedLU)
    fresh = StackSolver(second.model, ordering="symmetric")
    got = second.solve_state(state, solver=reused).raw.drops
    want = second.solve_state(state, solver=fresh).raw.drops
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12
    # A block is un-permuted like a single right-hand side.
    rhs = np.column_stack([want, 2.0 * want])
    single = np.column_stack([reused.solve_currents(c).drops for c in rhs.T])
    np.testing.assert_allclose(reused.solve_block(rhs), single, rtol=1e-12)


def test_first_point_of_a_pattern_is_the_plain_symmetric_factorization(
    same_pattern_stacks,
):
    bench, (first, _) = same_pattern_stacks
    state = bench.reference_state()
    memoized = StackSolver(first.model, ordering="symmetric", orderings=OrderingMemo())
    plain = StackSolver(first.model, ordering="symmetric")
    got = first.solve_state(state, solver=memoized).raw.drops
    assert np.array_equal(got, first.solve_state(state, solver=plain).raw.drops)


def test_residual_gauge_uses_the_unpermuted_matrix(same_pattern_stacks):
    bench, (first, second) = same_pattern_stacks
    memo = OrderingMemo()
    StackSolver(first.model, ordering="symmetric", orderings=memo)
    solver = StackSolver(second.model, ordering="symmetric", orderings=memo)
    matrix = second.model.conductance_matrix().tocsc()
    currents = solver.currents_from_maps(second.power_maps(bench.reference_state()))
    drops = solver.solve_currents(currents).drops  # first solve: sampled
    want = np.linalg.norm(matrix @ drops - currents) / np.linalg.norm(currents)
    assert _metrics.get_gauge("solver.residual_norm") == want
    assert want < 1e-12


def test_ordering_memo_needs_the_symmetric_ordering(baselines):
    _, stack = baselines["ddr3_off"]
    with pytest.raises(ConfigurationError, match="ordering memo"):
        make_operator(
            stack.model.conductance_matrix().tocsc(),
            ordering="colamd",
            orderings=OrderingMemo(),
        )


def test_session_assembly_of_a_task_is_bitwise_cold(task):
    bench, key, grid = task
    session = AssemblySession()
    for point in grid:
        config = config_from_parts(bench, key, *point)
        warm = build_stack(bench.stack, config, session=session)
        cold = build_stack(bench.stack, config)
        a = warm.model.conductance_matrix().tocsc()
        b = cold.model.conductance_matrix().tocsc()
        assert _pattern(a) == _pattern(b)
        assert a.data.tobytes() == b.data.tobytes()
    assert session.stats()["meshes"] > 0
