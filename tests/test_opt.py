"""Co-optimizer: Equation (1), alpha behaviour, feasibility rules."""

import pytest

from repro.designs import off_chip_ddr3
from repro.errors import OptimizationError
from repro.opt import CoOptimizer, cooptimizer, ir_cost
from repro.pdn import TSVLocation
from repro.perf.cache import cached_build_stack, clear_caches, stack_cache


class TestIRCost:
    def test_alpha_limits(self):
        assert ir_cost(50.0, 0.5, alpha=0.0) == pytest.approx(0.5)
        assert ir_cost(50.0, 0.5, alpha=1.0) == pytest.approx(50.0)

    def test_geometric_blend(self):
        assert ir_cost(100.0, 0.25, 0.5) == pytest.approx((100.0 * 0.25) ** 0.5)

    def test_validation(self):
        with pytest.raises(OptimizationError):
            ir_cost(10.0, 1.0, alpha=1.5)
        with pytest.raises(OptimizationError):
            ir_cost(-1.0, 1.0, alpha=0.5)


@pytest.fixture(scope="module")
def optimizer():
    """A coarse co-optimizer for the off-chip benchmark (module-shared)."""
    return CoOptimizer(off_chip_ddr3(), tc_points=2)


class TestOptimize:
    def test_alpha0_minimizes_cost(self, optimizer):
        result = optimizer.optimize(0.0, verify=False)
        config = result.config
        # The cheapest corner of the space: minimum metal, minimum TSVs,
        # center location, F2B, no extras (the paper's Table 9 alpha=0 row).
        assert config.m2_usage == pytest.approx(0.10)
        assert config.m3_usage == pytest.approx(0.10)
        assert config.tsv_count == 15
        assert config.tsv_location is TSVLocation.CENTER
        assert not config.wire_bond and not config.rdl.enabled

    def test_alpha1_minimizes_ir(self, optimizer):
        low_cost = optimizer.optimize(0.0, verify=False)
        low_ir = optimizer.optimize(1.0, verify=False)
        assert low_ir.predicted_ir_mv < low_cost.predicted_ir_mv
        assert low_ir.cost > low_cost.cost
        # The IR-optimal corner maxes the metal.
        assert low_ir.config.m2_usage == pytest.approx(0.20)
        assert low_ir.config.m3_usage == pytest.approx(0.40)

    def test_alpha_monotone_tradeoff(self, optimizer):
        results = optimizer.alpha_sweep((0.0, 0.3, 1.0), verify=False)
        irs = [r.predicted_ir_mv for r in results]
        costs = [r.cost for r in results]
        assert irs[0] >= irs[1] >= irs[2]
        assert costs[0] <= costs[1] <= costs[2]

    def test_verification_close_to_prediction(self, optimizer):
        result = optimizer.optimize(1.0, verify=True)
        assert result.verified_ir_mv == pytest.approx(
            result.predicted_ir_mv, rel=0.35
        )

    def test_baseline_result(self, optimizer):
        base = optimizer.baseline_result()
        assert base.cost == pytest.approx(0.35, abs=0.01)  # Table 9
        assert base.verified_ir_mv > 0

    def test_baseline_result_leaves_no_stack_cache_entry(self, optimizer):
        # Solved once per run: a miss builds the baseline, solves it and
        # keeps nothing, so its factorization is freed.
        clear_caches()
        optimizer.baseline_result()
        assert len(stack_cache) == 0

    def test_baseline_result_reuses_a_kept_baseline(self, optimizer):
        # A baseline another experiment kept is read with exactly one hit.
        clear_caches()
        bench = optimizer.bench
        kept = cached_build_stack(
            bench.stack, bench.baseline, tech=optimizer.tech, pitch=optimizer.pitch
        )
        hits = stack_cache.hits
        base = optimizer.baseline_result()
        assert stack_cache.hits == hits + 1
        assert len(stack_cache) == 1
        assert base.verified_ir_mv == kept.solve_state(bench.reference_state()).dram_max_mv
        clear_caches()

    def test_optimum_beats_baseline_at_its_alpha(self, optimizer):
        """The alpha=0.3 solution dominates the baseline on the objective."""
        base = optimizer.baseline_result()
        best = optimizer.optimize(0.3, verify=True)
        base_obj = ir_cost(base.verified_ir_mv, base.cost, 0.3)
        best_obj = ir_cost(best.verified_ir_mv, best.cost, 0.3)
        assert best_obj < base_obj

    def test_table9_row_format(self, optimizer):
        row = optimizer.optimize(0.0, verify=False).table9_row()
        assert "M2" in row and "cost" in row

    def test_brute_force_projection_large(self, optimizer):
        assert optimizer.brute_force_size() > 100_000

    def test_alpha_sweep_verifies_outside_the_stack_cache(self, optimizer, monkeypatch):
        # A fresh optimizer on the shared surrogate: a repeated alpha
        # picks the same config, which is built and solved once, and the
        # process-global stack cache is neither read nor written.
        fresh = CoOptimizer(optimizer.bench, surrogate=optimizer.surrogate)
        built = []
        real_build = cooptimizer.build_stack

        def counting_build(spec, config, **kwargs):
            built.append(config)
            return real_build(spec, config, **kwargs)

        monkeypatch.setattr(cooptimizer, "build_stack", counting_build)
        stats = stack_cache.stats()
        first, again = fresh.alpha_sweep((1.0, 1.0))
        assert first.config == again.config
        assert again.verified_ir_mv == first.verified_ir_mv
        assert built == [first.config]
        assert stack_cache.stats() == stats
