"""Scheduling policy admission rules and activation windows."""

import pytest

from repro.controller import IRAwareDistR, IRAwareFCFS, StandardJEDEC
from repro.controller.request import ReadRequest
from repro.dram.timing import TimingParams
from repro.errors import ConfigurationError


@pytest.fixture
def timing():
    return TimingParams.ddr3_1600()


def reqs(*dies):
    return [ReadRequest(i, die, 0, 0, i) for i, die in enumerate(dies)]


class TestStandardJEDEC:
    def test_trrd_enforced(self, timing):
        policy = StandardJEDEC(timing)
        policy.reset()
        assert policy.may_activate(0, 100, (0, 0, 0, 0))
        policy.on_activate(0, 100)
        assert not policy.may_activate(1, 100 + timing.tRRD - 1, (1, 0, 0, 0))
        assert policy.may_activate(1, 100 + timing.tRRD, (1, 0, 0, 0))

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
            assert policy.may_activate(0, t, (0,) * 4)
            policy.on_activate(0, t)
        assert not policy.may_activate(0, 8, (0,) * 4)
        assert not policy.may_activate(0, 31, (0,) * 4)
        assert policy.may_activate(0, 32, (0,) * 4)

    def test_earliest_activate(self, timing):
        policy = StandardJEDEC(timing)
        policy.reset()
        for k in range(4):
            policy.on_activate(0, k * timing.tRRD)
        earliest = policy.earliest_activate(25)
        assert earliest == timing.tFAW  # first ACT leaves the window then
        assert policy.may_activate(0, earliest, (0,) * 4)

    def test_fcfs_act_window(self, timing):
        # The engine hands FCFS policies their waiting requests in
        # arrival order; the standard window keeps the oldest two as is.
        policy = StandardJEDEC(timing)
        queued = reqs(3, 1, 2)
        assert policy.act_candidates(queued, (0, 0, 0, 2)) == queued[:2]

    def test_ir_blind(self, timing):
        policy = StandardJEDEC(timing)
        assert policy.may_read(0, 0, (2, 2, 2, 2))
        assert not policy.must_shed((2, 2, 2, 2))

    def test_reset_clears_history(self, timing):
        policy = StandardJEDEC(timing)
        for k in range(4):
            policy.on_activate(0, k)
        policy.reset()
        assert policy.may_activate(0, 0, (0,) * 4)


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

    def test_fcfs_act_candidates_head_of_line(self, ddr3_lut):
        policy = IRAwareFCFS(ddr3_lut, 24.0)
        waiting = reqs(3, 3, 0, 1, 2, 0)
        window = policy.act_candidates(waiting, (0, 0, 0, 0))
        assert window == waiting[: policy.act_lookahead]

    def test_distr_prioritizes_least_loaded_die(self, ddr3_lut):
        policy = IRAwareDistR(ddr3_lut, 24.0)
        waiting = reqs(3, 0, 1)
        # Die 3 already busy; dies 0/1 idle -> they come first, in age order.
        ordered = policy.act_candidates(waiting, (0, 0, 0, 2))
        assert [r.die for r in ordered] == [0, 1, 3]

