"""The event-driven engine is pinned to frozen controller decisions.

``tests/golden/controller_decisions.json`` holds the full
:class:`SimResult` of 15 seeded runs -- 3 seeds x 3 policies, refresh +
2 channels + 20% writes per policy, a 3-state occupancy cap, refresh at
seed 13, and ``repro3d sim`` on ``tests/data/ramulator_1k.trace`` -- and
the DDR3 IR-drop LUT they ran under, as ``IRDropLUT.to_json`` text.  The
results were produced at commit 4bdeff05bab5af8dcfecedc7d4677bf8a3b70866
by the per-cycle reference loop then in
``src/repro/controller/simulator.py`` (per-bank FSM objects, one command
per channel per cycle, a full queue scan every cycle), with that LUT
loaded through ``IRDropLUT.from_json``.  The event engine matched every
field of every case at that commit.

Every field must still match exactly: command counts, the per-state
cycle histogram, latencies, and the reported max IR.  The LUT is loaded
from the golden, so the check does not depend on the solver.
"""

from dataclasses import asdict

import numpy as np
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
from repro.controller.engine import (
    _FAR,
    BankStateVec,
    OccupancyAccumulator,
)
from repro.dram import TimingParams

SEEDS = (1, 20150607, 999)
POLICIES = ("standard", "ir_fcfs", "ir_distr")


@pytest.fixture(scope="module")
def timing():
    return TimingParams.ddr3_1600()


def _make_policy(name, timing, lut):
    if name == "standard":
        return StandardJEDEC(timing)
    if name == "ir_fcfs":
        return IRAwareFCFS(lut, 24.0)
    return IRAwareDistR(lut, 24.0)


def _run(cfg, name, timing, lut, wc):
    return EventDrivenEngine(
        cfg, _make_policy(name, timing, lut), generate_workload(wc), lut
    ).run()


class TestDecisionExactness:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_base_config(self, timing, golden_lut, assert_golden, seed, policy):
        cfg = SimConfig(timing=timing)
        wc = WorkloadConfig(num_requests=1200, seed=seed)
        result = _run(cfg, policy, timing, golden_lut, wc)
        assert_golden(f"base/{policy}/seed={seed}", result)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_refresh_multichannel_writes(
        self, timing, golden_lut, assert_golden, policy
    ):
        cfg = SimConfig(
            timing=timing, refresh_enabled=True, num_channels=2
        )
        wc = WorkloadConfig(num_requests=1200, seed=7, write_fraction=0.2)
        result = _run(cfg, policy, timing, golden_lut, wc)
        assert_golden(f"refresh_2ch_writes/{policy}", result)


class TestStreamingWorkload:
    def test_generator_input_matches_list(self, timing):
        """A workload consumed as a stream (never materialized) produces
        the same result as the same workload passed as a list."""
        cfg = SimConfig(timing=timing)
        wc = WorkloadConfig(num_requests=800, seed=3)
        as_list = EventDrivenEngine(
            cfg, StandardJEDEC(timing), generate_workload(wc)
        ).run()
        as_stream = EventDrivenEngine(
            cfg, StandardJEDEC(timing), iter(generate_workload(wc))
        ).run()
        assert asdict(as_stream) == asdict(as_list)

    def test_empty_stream(self, timing):
        res = EventDrivenEngine(cfg := SimConfig(timing=timing),
                                StandardJEDEC(timing), iter(())).run()
        assert res.completed == 0
        assert res.finished


class TestBoundedOccupancy:
    def test_cap_diverts_to_dropped(self, timing):
        """With a tiny state cap, overflow cycles land in states_dropped
        and the histogram never exceeds the cap."""
        cfg = SimConfig(timing=timing, max_tracked_states=2)
        wl = generate_workload(WorkloadConfig(num_requests=600, seed=5))
        res = EventDrivenEngine(cfg, StandardJEDEC(timing), wl).run()
        assert len(res.state_occupancy) <= 2
        assert res.states_dropped > 0
        # Total accounted cycles (tracked + dropped) equals the run.
        assert sum(res.state_occupancy.values()) + res.states_dropped == res.cycles

    def test_both_engines_drop_identically(self, timing, assert_golden):
        cfg = SimConfig(timing=timing, max_tracked_states=3)
        wc = WorkloadConfig(num_requests=600, seed=5)
        result = EventDrivenEngine(
            cfg, StandardJEDEC(timing), generate_workload(wc)
        ).run()
        assert_golden("state_cap_3", result)

    def test_accumulator_semantics(self):
        acc = OccupancyAccumulator(cap=2)
        acc.add((1, 0), 3)
        acc.add((0, 1), 2)
        acc.add((2, 2), 5)  # third distinct state: over the cap
        acc.add((1, 0), 1)  # already tracked: always accumulates
        assert acc.table == {(1, 0): 4, (0, 1): 2}
        assert acc.dropped == 5


class TestVectorScalarParity:
    @pytest.mark.parametrize("seed", range(5))
    def test_next_event_vector_matches_scalar(self, seed):
        """The masked vector min equals the scalar scan on random bank
        state (the engine switches between them on bank count)."""
        rng = np.random.default_rng(seed)
        n = 64
        vec = BankStateVec(n)
        for i in range(n):
            vec.set_st(i, int(rng.integers(0, 4)))
            vec.set_rdy(i, int(rng.integers(0, 300)))
            vec.set_act(i, int(rng.integers(0, 200)))
            vec.set_col(i, int(rng.integers(0, 250)))
            vec.set_lact(i, int(rng.integers(0, 250)))
        now = 100
        tCCD, tRAS, tWR, cw = 4, 28, 12, 8
        got = EventDrivenEngine._bank_events_vec(vec, now, tCCD, tRAS, tWR, cw)
        best = _FAR
        for i in range(n):
            st = vec.st_l[i]
            if st in (1, 3):
                v = vec.rdy_l[i]
                if now < v < best:
                    best = v
            elif st == 2:
                for v in (
                    max(vec.col_l[i] + tCCD, vec.rdy_l[i]),
                    vec.act_l[i] + tRAS,
                    vec.col_l[i] + tWR,
                    vec.lact_l[i] + cw,
                ):
                    if now < v < best:
                        best = v
        assert got == best

    def test_bank_state_vec_consistency(self):
        vec = BankStateVec(8)
        assert vec.consistent()
        vec.set_st(3, 2)
        vec.set_row(3, 41)
        vec.set_rdy(3, 17)
        vec.set_act(3, 9)
        vec.set_col(3, 13)
        vec.set_lact(3, 9)
        assert vec.consistent()
        assert vec.st[3] == vec.st_l[3] == 2
        # A raw array write (bypassing set_*) is exactly what
        # consistent() exists to catch.
        vec.st[3] = 0
        assert not vec.consistent()
