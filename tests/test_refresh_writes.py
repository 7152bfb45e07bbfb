"""Controller extensions: periodic refresh and mixed read/write streams."""

import pytest

from repro.controller import (
    EventDrivenEngine,
    IRAwareDistR,
    ReadRequest,
    SimConfig,
    StandardJEDEC,
    WorkloadConfig,
    generate_workload,
)
from repro.dram import TimingParams
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def timing():
    return TimingParams.ddr3_1600()


class TestWriteDevicePath:
    def test_write_holds_row_for_twr(self, timing):
        """A row written late in its open window stays open for tWR
        before the precharge that a row miss to the same bank needs."""
        wl = [
            ReadRequest(0, die=0, bank=0, row=3, arrival_cycle=0),
            ReadRequest(1, die=0, bank=0, row=3, arrival_cycle=20, is_write=True),
            ReadRequest(2, die=0, bank=0, row=4, arrival_cycle=21),
        ]
        EventDrivenEngine(SimConfig(timing=timing), StandardJEDEC(timing), wl).run()
        write, miss = wl[1], wl[2]
        # The row opened at cycle 0, so tWR (not tRAS) binds the PRE.
        assert write.issue_cycle + timing.tWR > timing.tRAS
        assert miss.issue_cycle == (
            write.issue_cycle + timing.tWR + timing.tRP + timing.tRCD
        )


class TestMixedWorkload:
    def test_write_fraction_applied(self):
        wl = generate_workload(
            WorkloadConfig(num_requests=4000, write_fraction=0.3)
        )
        frac = sum(r.is_write for r in wl) / len(wl)
        assert frac == pytest.approx(0.3, abs=0.03)

    def test_write_fraction_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(write_fraction=1.5)

    def test_mixed_stream_completes(self, timing):
        cfg = SimConfig(timing=timing)
        wl = generate_workload(
            WorkloadConfig(num_requests=1200, write_fraction=0.3)
        )
        res = EventDrivenEngine(cfg, StandardJEDEC(timing), wl).run()
        assert res.finished
        for req in wl:
            assert req.complete_cycle is not None
            latency = timing.tCWL if req.is_write else timing.tCL
            assert req.complete_cycle == req.issue_cycle + latency + timing.burst_cycles

    def test_ir_aware_policy_handles_writes(self, timing, ddr3_lut):
        cfg = SimConfig(timing=timing)
        wl = generate_workload(
            WorkloadConfig(num_requests=800, write_fraction=0.5)
        )
        res = EventDrivenEngine(
            cfg, IRAwareDistR(ddr3_lut, 24.0), wl, report_lut=ddr3_lut
        ).run()
        assert res.finished
        assert res.max_ir_mv <= 24.0


class TestRefresh:
    def test_refreshes_issued_at_trefi_rate(self, timing):
        cfg = SimConfig(timing=timing, refresh_enabled=True)
        wl = generate_workload(WorkloadConfig(num_requests=3000))
        res = EventDrivenEngine(cfg, StandardJEDEC(timing), wl).run()
        assert res.finished
        expected = res.cycles * cfg.num_dies / timing.tREFI
        assert res.refreshes == pytest.approx(expected, abs=cfg.num_dies + 1)

    def test_refresh_costs_runtime(self, timing):
        wl_a = generate_workload(WorkloadConfig(num_requests=3000))
        wl_b = generate_workload(WorkloadConfig(num_requests=3000))
        base = EventDrivenEngine(
            SimConfig(timing=timing), StandardJEDEC(timing), wl_a
        ).run()
        refreshed = EventDrivenEngine(
            SimConfig(timing=timing, refresh_enabled=True),
            StandardJEDEC(timing),
            wl_b,
        ).run()
        assert refreshed.runtime_us > base.runtime_us
        # ...but the overhead is bounded (tRFC/tREFI ~ 3% per die stagger).
        assert refreshed.runtime_us < 1.6 * base.runtime_us

    def test_refresh_off_by_default(self, timing):
        cfg = SimConfig(timing=timing)
        wl = generate_workload(WorkloadConfig(num_requests=500))
        res = EventDrivenEngine(cfg, StandardJEDEC(timing), wl).run()
        assert res.refreshes == 0

    def test_refresh_with_ir_aware_policy(self, timing, ddr3_lut):
        cfg = SimConfig(timing=timing, refresh_enabled=True)
        wl = generate_workload(WorkloadConfig(num_requests=1500))
        res = EventDrivenEngine(
            cfg, IRAwareDistR(ddr3_lut, 24.0), wl, report_lut=ddr3_lut
        ).run()
        assert res.finished
        assert res.refreshes > 0
        assert res.max_ir_mv <= 24.0


class TestRefreshConformance:
    """tREFI/tRFC conformance.

    The spec contract: each die is refreshed once per tREFI window
    (staggered across dies), and a refreshing die accepts no command
    until tRFC has elapsed -- so no request issued on a die can overlap
    an in-flight refresh there.
    """

    @pytest.fixture(scope="class")
    def run(self, timing):
        cfg = SimConfig(timing=timing, refresh_enabled=True)
        wl = generate_workload(WorkloadConfig(num_requests=2000, seed=13))
        return EventDrivenEngine(cfg, StandardJEDEC(timing), wl).run()

    def test_trefi_rate_per_die(self, timing, run):
        cfg_dies = 4
        windows = run.cycles // timing.tREFI
        # One refresh per die per tREFI window, +/- the partial last
        # window and the die stagger.
        assert abs(run.refreshes - windows * cfg_dies) <= 2 * cfg_dies

    def test_refresh_delays_service(self, timing):
        """Refresh blackouts are visible end to end: the same workload
        takes longer with refresh enabled."""
        wl_a = generate_workload(WorkloadConfig(num_requests=2000, seed=13))
        wl_b = generate_workload(WorkloadConfig(num_requests=2000, seed=13))
        base = EventDrivenEngine(
            SimConfig(timing=timing), StandardJEDEC(timing), wl_a
        ).run()
        refreshed = EventDrivenEngine(
            SimConfig(timing=timing, refresh_enabled=True),
            StandardJEDEC(timing),
            wl_b,
        ).run()
        assert refreshed.cycles > base.cycles
        assert refreshed.refreshes > 0

    def test_engines_agree_under_refresh(self, run, assert_golden):
        """The refreshed run matches the frozen reference decisions."""
        assert_golden("refresh_seed13", run)


class TestMultiChannel:
    def test_per_channel_cap_enforced(self, timing):
        """With 2 channels and a per-channel cap of 1, no more than one
        bank per (die, channel) is ever active."""
        cfg = SimConfig(
            timing=timing,
            num_channels=2,
            max_banks_per_die=4,
            max_banks_per_channel=1,
        )
        wl = generate_workload(WorkloadConfig(num_requests=600))
        sim = EventDrivenEngine(cfg, StandardJEDEC(timing), wl)
        res = sim.run()
        assert res.finished
        # The die-level counts can reach 2 (one per channel) but the
        # interleave cap of 4 is never the binding limit.
        assert max(max(c) for c in res.state_occupancy) <= 2

    def test_channel_striping(self, timing):
        cfg = SimConfig(timing=timing, num_channels=2)
        assert cfg.channel_of(0) == 0
        assert cfg.channel_of(3) == 0
        assert cfg.channel_of(4) == 1
        assert cfg.channel_of(7) == 1

    def test_multichannel_throughput_scales(self, timing):
        """Two data buses move the saturating workload faster than one."""
        wl_a = generate_workload(WorkloadConfig(num_requests=1500, arrival_interval=1))
        wl_b = generate_workload(WorkloadConfig(num_requests=1500, arrival_interval=1))
        one = EventDrivenEngine(
            SimConfig(timing=timing, num_channels=1), StandardJEDEC(timing), wl_a
        ).run()
        two = EventDrivenEngine(
            SimConfig(timing=timing, num_channels=2), StandardJEDEC(timing), wl_b
        ).run()
        assert two.runtime_us < one.runtime_us
