"""The event-driven engine is pinned to frozen controller decisions.

``tests/golden/controller_decisions.json`` holds the full
:class:`SimResult` of 19 seeded runs and the DDR3 IR-drop LUT they ran
under, as ``IRDropLUT.to_json`` text.  Fifteen of them -- 3 seeds x 3
policies, refresh + 2 channels + 20% writes per policy, a 3-state
occupancy cap, refresh at seed 13, and ``repro3d sim`` on
``tests/data/ramulator_1k.trace`` -- were produced at commit
4bdeff05bab5af8dcfecedc7d4677bf8a3b70866 by the per-cycle reference
loop then in
``src/repro/controller/simulator.py`` (per-bank FSM objects, one command
per channel per cycle, a full queue scan every cycle), with that LUT
loaded through ``IRDropLUT.from_json``.  The event engine matched every
field of every case at that commit.

Every field must still match exactly: command counts, the per-state
cycle histogram, latencies, and the reported max IR.  The LUT is loaded
from the golden, so the check does not depend on the solver.

The four ``distr/*`` cases widen DistR's coverage to 4 and 8 channels
with a one-bank-per-channel activation cap, refresh, 25% writes, 21 and
24 mV constraints and streamed (iterator) input.  They were recorded at
commit 525ccc43982196c47b6439775d8e25f9bb9c0c67, where DistR still ran
on a separate whole-queue scan that re-sorted the queue by the policy's
priority every scheduling iteration, under the same golden LUT.
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
from repro.controller.request import ReadRequest
from repro.dram import TimingParams
from repro.errors import SimulationError

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


#: name -> (SimConfig overrides, WorkloadConfig, constraint mV, streamed).
DISTR_CASES = {
    "distr/4ch_chancap1_refresh_writes_21mv": (
        dict(num_channels=4, max_banks_per_channel=1, refresh_enabled=True),
        WorkloadConfig(num_requests=3000, seed=11, write_fraction=0.25),
        21.0,
        False,
    ),
    "distr/8ch_chancap1_refresh_writes_stream": (
        dict(num_channels=8, max_banks_per_channel=1, refresh_enabled=True),
        WorkloadConfig(num_requests=3000, seed=23, write_fraction=0.25),
        24.0,
        True,
    ),
    "distr/4ch_dense_24mv": (
        dict(num_channels=4),
        WorkloadConfig(num_requests=2000, seed=5, arrival_interval=2),
        24.0,
        False,
    ),
    "distr/8ch_dense_writes_stream_21mv": (
        dict(num_channels=8, max_banks_per_channel=1),
        WorkloadConfig(
            num_requests=2000, seed=29, arrival_interval=2, write_fraction=0.25
        ),
        21.0,
        True,
    ),
}


class TestDistRMultiChannel:
    @pytest.mark.parametrize("name", sorted(DISTR_CASES))
    def test_distr_case(self, timing, golden_lut, assert_golden, name):
        overrides, wc, constraint_mv, streamed = DISTR_CASES[name]
        cfg = SimConfig(timing=timing, **overrides)
        workload = generate_workload(wc)
        result = EventDrivenEngine(
            cfg,
            IRAwareDistR(golden_lut, constraint_mv),
            iter(workload) if streamed else workload,
            golden_lut,
        ).run()
        assert_golden(name, result)


class _ActLog:
    """Mixin recording every ACT as ``(die, cycle)``."""

    def reset(self):
        super().reset()
        self.acts = []

    def on_activate(self, die, now):
        super().on_activate(die, now)
        self.acts.append((die, now))


class _DistRLog(_ActLog, IRAwareDistR):
    pass


class _FCFSLog(_ActLog, IRAwareFCFS):
    pass


class TestDistRScheduling:
    """DistR's two orderings, observed on the engine's ACT stream."""

    def test_act_window_reaches_past_oldest_requests(self, timing, golden_lut):
        """The oldest ``act_lookahead`` waiting requests all target die 0,
        which already has an activating bank; a younger request targets
        idle die 3.  DistR ranks the channel's whole waiting list by die
        load before taking its window, so die 3 activates next; FCFS
        only sees the oldest requests and activates die 0 again."""
        lookahead = IRAwareDistR.act_lookahead

        def workload():
            wl = [ReadRequest(0, 0, 0, 1, 0)]
            wl += [
                ReadRequest(1 + j, 0, 1 + j, 1, 1) for j in range(lookahead)
            ]
            wl.append(ReadRequest(1 + lookahead, 3, 0, 1, 1))
            return wl

        cfg = SimConfig(timing=timing)
        distr = _DistRLog(golden_lut, 100.0)  # the LUT never binds
        assert EventDrivenEngine(cfg, distr, workload()).run().finished
        assert distr.acts[:2] == [(0, 0), (3, 1)]
        fcfs = _FCFSLog(golden_lut, 100.0)
        assert EventDrivenEngine(cfg, fcfs, workload()).run().finished
        assert fcfs.acts[:2] == [(0, 0), (0, 1)]

    def test_ready_read_drains_before_activation(self, timing, golden_lut):
        """A read to an open row on the loaded die issues before an ACT
        for a request on an idle die that arrives in the same cycle."""
        first = ReadRequest(0, 0, 0, 1, 0)
        hit = ReadRequest(1, 0, 0, 1, timing.tRCD)
        other = ReadRequest(2, 3, 0, 1, timing.tRCD)
        policy = _DistRLog(golden_lut, 100.0)
        cfg = SimConfig(timing=timing)
        EventDrivenEngine(cfg, policy, [first, hit, other]).run()
        assert first.issue_cycle == timing.tRCD
        assert hit.issue_cycle is not None
        assert policy.acts == [(0, 0), (3, timing.tRCD + 1)]


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

    def test_list_runs_again(self, timing):
        """A list workload is replayed from its start on every run."""
        cfg = SimConfig(timing=timing, num_channels=2)
        engine = EventDrivenEngine(
            cfg,
            StandardJEDEC(timing),
            generate_workload(WorkloadConfig(num_requests=300, seed=4)),
        )
        assert asdict(engine.run()) == asdict(engine.run())

    def test_stream_validated_when_pulled(self, timing):
        """A stream is checked request by request as the engine pulls it,
        never up front."""
        cfg = SimConfig(timing=timing)
        bad = iter([ReadRequest(0, 0, 0, 0, 0), ReadRequest(1, 9, 0, 0, 5)])
        engine = EventDrivenEngine(cfg, StandardJEDEC(timing), bad)
        with pytest.raises(SimulationError, match="die 9 out of range"):
            engine.run()

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
