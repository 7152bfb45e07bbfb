"""Scheduling policy admission rules and activation windows."""

import pytest

from repro.controller import IRAwareFCFS, StandardJEDEC
from repro.dram.timing import TimingParams
from repro.errors import ConfigurationError


@pytest.fixture
def timing():
    return TimingParams.ddr3_1600()


class TestStandardJEDEC:
    def test_trrd_enforced(self, timing):
        policy = StandardJEDEC(timing)
        policy.reset()
        assert policy.earliest_activate(100) == 100
        policy.on_activate(0, 100)
        assert policy.earliest_activate(100 + timing.tRRD - 1) == (
            100 + timing.tRRD
        )
        assert policy.earliest_activate(100 + timing.tRRD) == 100 + timing.tRRD

    def test_tfaw_enforced(self):
        # tRRD=2 makes tFAW the binding window: four ACTs in 8 cycles,
        # then the fifth must wait until the first leaves the 32-cycle
        # four-activate window.
        timing = TimingParams(
            clock_mhz=800, tCL=11, tRCD=11, tRP=11, tRAS=28,
            tCCD=4, tRRD=2, tFAW=32, tWR=12, burst_cycles=4,
        )
        policy = StandardJEDEC(timing)
        policy.reset()
        for t in (0, 2, 4, 6):
            assert policy.earliest_activate(t) == t
            policy.on_activate(0, t)
        assert policy.earliest_activate(8) == 32
        assert policy.earliest_activate(31) == 32
        assert policy.earliest_activate(32) == 32

    def test_earliest_activate(self, timing):
        policy = StandardJEDEC(timing)
        policy.reset()
        for k in range(4):
            policy.on_activate(0, k * timing.tRRD)
        earliest = policy.earliest_activate(25)
        assert earliest == timing.tFAW  # first ACT leaves the window then
        assert policy.earliest_activate(earliest) == earliest

    def test_ir_blind(self, timing):
        policy = StandardJEDEC(timing)
        assert not policy.must_shed((2, 2, 2, 2))

    def test_reset_clears_history(self, timing):
        policy = StandardJEDEC(timing)
        for k in range(4):
            policy.on_activate(0, k)
        policy.reset()
        assert policy.earliest_activate(0) == 0


class TestIRAware:
    def test_constraint_validation(self, ddr3_lut):
        with pytest.raises(ConfigurationError):
            IRAwareFCFS(ddr3_lut, 0.0)

    def test_act_admission(self, ddr3_lut):
        policy = IRAwareFCFS(ddr3_lut, 24.0)
        # Activating the 2nd bank on the top die from idle-elsewhere
        # creates the forbidden 0-0-0-2 state.
        assert not policy.may_activate(3, 0, (0, 0, 0, 1))
        # A single bank on die 0 is fine.
        assert policy.may_activate(0, 0, (0, 0, 0, 0))

    def test_interleave_cap(self, ddr3_lut):
        policy = IRAwareFCFS(ddr3_lut, 1000.0)  # constraint never binds
        assert not policy.may_activate(0, 0, (2, 0, 0, 0))

    def test_read_gating_and_shedding(self, ddr3_lut):
        policy = IRAwareFCFS(ddr3_lut, 24.0)
        bad = (0, 0, 0, 2)
        assert not policy.may_read(3, 0, bad)
        assert policy.must_shed(bad)
        good = (1, 1, 1, 1)
        assert policy.may_read(0, 0, good)
        assert not policy.must_shed(good)
        assert not policy.must_shed((0, 0, 0, 0))  # idle is never shed
