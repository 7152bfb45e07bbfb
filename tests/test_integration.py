"""Cross-module integration scenarios a downstream user would hit."""

import pytest

from repro import MemoryState, benchmark, build_stack
from repro.controller import (
    EventDrivenEngine,
    IRAwareDistR,
    IRDropLUT,
    SimConfig,
    WorkloadConfig,
    generate_workload,
)
from repro.cost import config_cost
from repro.dram.timing import TimingParams
from repro.opt import ir_cost
from repro.pdn import Bonding


class TestAllBenchmarksSolve:
    """Every benchmark builds and solves its baseline and reference state."""

    @pytest.mark.parametrize("key", ["ddr3_off", "ddr3_on", "wideio", "hmc"])
    def test_baseline_reference_state(self, key):
        bench = benchmark(key)
        stack = build_stack(bench.stack, bench.baseline)
        result = stack.solve_state(bench.reference_state())
        assert 1.0 < result.dram_max_mv < 500.0
        assert result.total_power_mw > 0
        # Every DRAM die reports a drop.
        assert set(result.per_die_mv) == set(stack.dram_die_names)

    @pytest.mark.parametrize("key", ["ddr3_on", "wideio", "hmc"])
    def test_hosted_designs_report_logic_noise(self, key):
        bench = benchmark(key)
        stack = build_stack(bench.stack, bench.baseline)
        result = stack.solve_state(bench.reference_state())
        assert result.logic_max_mv is not None
        assert result.logic_max_mv > 0


class TestFullPipeline:
    def test_design_to_policy_flow(self, ddr3_off_bench):
        """The paper's full loop: design -> LUT -> scheduled workload."""
        stack = build_stack(
            ddr3_off_bench.stack,
            ddr3_off_bench.baseline.with_options(bonding=Bonding.F2F),
        )
        lut = IRDropLUT(stack)
        timing = TimingParams.ddr3_1600()
        policy = IRAwareDistR(lut, 20.0)
        sim = EventDrivenEngine(
            SimConfig(timing=timing),
            policy,
            generate_workload(WorkloadConfig(num_requests=600)),
            report_lut=lut,
        )
        res = sim.run()
        assert res.finished
        assert res.max_ir_mv <= 20.0
        # The F2F design admits states the F2B design would forbid:
        # its LUT is globally lower.
        assert lut.lookup((0, 0, 0, 2)) < 22.0

    def test_better_pdn_lower_lut_everywhere(self, ddr3_off_bench, ddr3_lut):
        strong = build_stack(
            ddr3_off_bench.stack,
            ddr3_off_bench.baseline.with_options(m2_usage=0.20, m3_usage=0.40),
        )
        strong_lut = IRDropLUT(strong)
        for counts, value in ddr3_lut.as_dict().items():
            assert strong_lut.lookup(counts) <= value + 1e-9

    def test_ir_cost_tradeoff_between_designs(self, ddr3_off_bench):
        """A cheap-weak and an expensive-strong design swap ranking as
        alpha moves from cost-driven to IR-driven."""
        bench = ddr3_off_bench
        state = bench.reference_state()
        weak_cfg = bench.baseline.with_options(m3_usage=0.10, tsv_count=15)
        strong_cfg = bench.baseline.with_options(
            m2_usage=0.20, m3_usage=0.40, tsv_count=240, wire_bond=True
        )
        results = {}
        for name, cfg in (("weak", weak_cfg), ("strong", strong_cfg)):
            ir = build_stack(bench.stack, cfg).dram_max_mv(state)
            cost = config_cost(cfg, bench.package_cost).total
            results[name] = (ir, cost)
        weak_ir, weak_cost = results["weak"]
        strong_ir, strong_cost = results["strong"]
        assert ir_cost(weak_ir, weak_cost, 0.0) < ir_cost(strong_ir, strong_cost, 0.0)
        assert ir_cost(weak_ir, weak_cost, 1.0) > ir_cost(strong_ir, strong_cost, 1.0)

    def test_state_energy_accounting(self, ddr3_stack, ddr3_floorplan):
        """Solved total power equals the analytic model's stack power."""
        from repro.power.model import DDR3_POWER, stack_power_mw

        state = MemoryState.from_string("0-0-2-2", ddr3_floorplan)
        res = ddr3_stack.solve_state(state)
        assert res.total_power_mw == pytest.approx(
            stack_power_mw(DDR3_POWER, ddr3_floorplan, state), rel=1e-9
        )
