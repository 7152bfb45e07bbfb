"""Memory controller simulation: invariants and policy behaviour.

Workloads here are shortened (500-2000 requests) to keep the suite fast;
the full 10,000-request runs live in the benchmark harness.
"""

import pytest

from repro.controller import (
    EventDrivenEngine,
    IRAwareDistR,
    IRAwareFCFS,
    SimConfig,
    StandardJEDEC,
    WorkloadConfig,
    generate_workload,
)
from repro.dram.timing import TimingParams
from repro.errors import ConfigurationError, SimulationError


@pytest.fixture(scope="module")
def timing():
    return TimingParams.ddr3_1600()


@pytest.fixture(scope="module")
def cfg(timing):
    return SimConfig(timing=timing)


def small_workload(n=800, **kwargs):
    return generate_workload(WorkloadConfig(num_requests=n, **kwargs))


def run_policy(cfg, policy, workload, lut=None):
    return EventDrivenEngine(cfg, policy, workload, report_lut=lut).run()


class TestBasicInvariants:
    def test_all_requests_complete_exactly_once(self, cfg, timing):
        wl = small_workload()
        res = run_policy(cfg, StandardJEDEC(timing), wl)
        assert res.finished
        assert res.completed == len(wl)
        for req in wl:
            assert req.complete_cycle is not None
            assert req.issue_cycle is not None
            assert req.issue_cycle >= req.arrival_cycle
            assert req.complete_cycle == req.issue_cycle + timing.tCL + timing.burst_cycles

    def test_runtime_at_least_arrival_span(self, cfg, timing):
        wl = small_workload()
        res = run_policy(cfg, StandardJEDEC(timing), wl)
        assert res.cycles >= wl[-1].arrival_cycle

    def test_bandwidth_below_bus_cap(self, cfg, timing):
        wl = small_workload(arrival_interval=1)
        res = run_policy(cfg, StandardJEDEC(timing), wl)
        assert res.bandwidth_reads_per_clk <= 1.0 / timing.burst_cycles + 1e-9

    def test_state_occupancy_covers_runtime(self, cfg, timing):
        wl = small_workload()
        res = run_policy(cfg, StandardJEDEC(timing), wl)
        assert sum(res.state_occupancy.values()) == res.cycles

    def test_interleave_cap_respected(self, cfg, timing):
        wl = small_workload()
        res = run_policy(cfg, StandardJEDEC(timing), wl)
        for counts in res.state_occupancy:
            assert max(counts) <= cfg.max_banks_per_die

    def test_workload_validation(self, cfg, timing):
        from repro.controller.request import ReadRequest

        bad = [ReadRequest(0, die=9, bank=0, row=0, arrival_cycle=0)]
        with pytest.raises(SimulationError):
            EventDrivenEngine(cfg, StandardJEDEC(timing), bad)

    def test_deterministic(self, cfg, timing):
        a = run_policy(cfg, StandardJEDEC(timing), small_workload())
        b = run_policy(cfg, StandardJEDEC(timing), small_workload())
        assert a.cycles == b.cycles
        assert a.activations == b.activations


class TestIRAwareInvariants:
    def test_constraint_never_exceeded_at_act(self, cfg, ddr3_lut):
        constraint = 24.0
        policy = IRAwareFCFS(ddr3_lut, constraint)
        res = run_policy(cfg, policy, small_workload(), lut=ddr3_lut)
        assert res.finished
        assert res.max_ir_mv <= constraint + 1e-9

    def test_distr_constraint_respected(self, cfg, ddr3_lut):
        policy = IRAwareDistR(ddr3_lut, 24.0)
        res = run_policy(cfg, policy, small_workload(), lut=ddr3_lut)
        assert res.finished
        assert res.max_ir_mv <= 24.0

    def test_standard_exceeds_what_ir_aware_avoids(self, cfg, timing, ddr3_lut):
        wl_a = small_workload(n=1500)
        wl_b = small_workload(n=1500)
        std = run_policy(cfg, StandardJEDEC(timing), wl_a, lut=ddr3_lut)
        aware = run_policy(cfg, IRAwareFCFS(ddr3_lut, 24.0), wl_b, lut=ddr3_lut)
        assert std.max_ir_mv > 24.0  # the IDD7-style states happen
        assert aware.max_ir_mv <= 24.0

    def test_policy_performance_ordering(self, cfg, timing, ddr3_lut):
        """Table 6 ordering: standard slowest, DistR fastest."""
        results = {}
        for policy in (
            StandardJEDEC(timing),
            IRAwareFCFS(ddr3_lut, 24.0),
            IRAwareDistR(ddr3_lut, 24.0),
        ):
            results[policy.name] = run_policy(
                cfg, policy, small_workload(n=2000), lut=ddr3_lut
            )
        assert (
            results["standard"].runtime_us
            > results["ir_fcfs"].runtime_us
            >= results["ir_distr"].runtime_us
        )

    def test_tighter_constraint_slower(self, cfg, ddr3_lut):
        loose = run_policy(
            cfg, IRAwareDistR(ddr3_lut, 26.0), small_workload(n=1500), lut=ddr3_lut
        )
        tight = run_policy(
            cfg, IRAwareDistR(ddr3_lut, 19.0), small_workload(n=1500), lut=ddr3_lut
        )
        assert tight.finished
        assert tight.runtime_us >= loose.runtime_us
        assert tight.max_ir_mv <= 19.0

    def test_impossible_constraint_never_finishes(self, cfg, ddr3_lut):
        """Below the cheapest state nothing can issue (Figure 9 wall)."""
        constraint = ddr3_lut.min_active_ir() - 1.0
        policy = IRAwareDistR(ddr3_lut, constraint)
        sim = EventDrivenEngine(cfg, policy, small_workload(n=100), report_lut=ddr3_lut)
        try:
            res = sim.run(max_cycles=30_000)
            assert not res.finished
        except SimulationError:
            pass  # a detected stall is an equally valid outcome


class TestEventSkipping:
    def test_matches_dense_arrivals(self, cfg, timing):
        """Event skipping must not change results vs near-continuous load."""
        res = run_policy(cfg, StandardJEDEC(timing), small_workload(n=400, arrival_interval=50))
        assert res.finished
        # With arrivals every 50 cycles the system is mostly idle: runtime
        # is dominated by the arrival span, bandwidth low.
        assert res.cycles >= 400 * 50 - 50

    def test_max_cycles_cap(self, cfg, timing):
        res = EventDrivenEngine(
            cfg, StandardJEDEC(timing), small_workload(n=2000)
        ).run(max_cycles=100)
        assert not res.finished
        assert res.cycles <= 101


class TestLUTDieCount:
    """An IR-drop LUT built for another die count is refused when the
    engine is built (it used to fail inside the run, or at its end)."""

    @pytest.mark.parametrize("dies", [2, 8])
    def test_policy_lut_must_match(self, timing, golden_lut, dies):
        cfg = SimConfig(timing=timing, num_dies=dies)
        wl = small_workload(n=50, num_dies=dies)
        for cls in (IRAwareFCFS, IRAwareDistR):
            with pytest.raises(ConfigurationError, match="LUT is for 4 dies"):
                EventDrivenEngine(cfg, cls(golden_lut, 24.0), wl)

    def test_report_lut_must_match(self, timing, golden_lut):
        cfg = SimConfig(timing=timing, num_dies=8)
        wl = small_workload(n=50, num_dies=8)
        with pytest.raises(ConfigurationError, match="has 8"):
            EventDrivenEngine(cfg, StandardJEDEC(timing), wl, golden_lut)


class TestSimConfigValidation:
    """A structure the engine cannot run is refused when the config is
    built, naming the field, instead of failing inside the run."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_dies", 0),
            ("banks_per_die", 0),
            ("num_channels", 0),
            ("queue_depth", 0),
            ("max_banks_per_die", 0),
            ("max_banks_per_channel", 0),
            ("close_window", -1),
        ],
    )
    def test_rejects_impossible_field(self, timing, field, value):
        with pytest.raises(ConfigurationError, match=f"SimConfig.{field} "):
            SimConfig(timing=timing, **{field: value})

    def test_accepts_the_smallest_legal_structure(self, timing):
        cfg = SimConfig(
            timing=timing,
            num_dies=1,
            banks_per_die=1,
            num_channels=1,
            queue_depth=1,
            max_banks_per_die=1,
            max_banks_per_channel=1,
            close_window=0,
        )
        wl = small_workload(n=50, num_dies=1, banks_per_die=1)
        assert run_policy(cfg, StandardJEDEC(timing), wl).completed == 50
