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
  ordering, bitwise equal to a cold build.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.designs import hmc, off_chip_ddr3, on_chip_ddr3, wide_io
from repro.errors import ConfigurationError
from repro.obs import trace as _trace
from repro.pdn import build_stack
from repro.perf.cache import cached_build_stack, clear_caches
from repro.regress.model import sample_design_space, valid_discrete_combos
from repro.rmesh.backends import make_operator
from repro.rmesh.solve import StackSolver

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
