"""The event-driven engine is pinned to frozen controller decisions.

``tests/golden/controller_decisions.json`` holds the full
:class:`SimResult` of 32 seeded runs and the DDR3 IR-drop LUT they ran
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

The seven ``shape/*`` cases (see :class:`TestEngineShapes`) were
recorded at commit 3d918bc2602c11056a9d971c5350fe29366eec5f, where the
engine still re-partitioned each channel's queue and re-sorted it by die
load whenever the queue or the counts changed.  The five
``shape/hmc_refresh/*`` and ``shape/hmc_shed/*`` cases were recorded at
commit 38c109afdc2244982e910d52354f6a5eea0ebd02, where the engine still
evaluated every channel on every scheduling iteration.

``trace/ddr3_mixed_distr`` (see :class:`TestTraceStream`) was recorded at
commit 14bd7912a6f84ba263844a1f5ed8499eeb5d5d0b, before the engine's
per-state records, run-length occupancy and cached DistR waiting heads.
"""

import itertools
import random
from dataclasses import asdict

import pytest

from repro.controller import (
    EventDrivenEngine,
    IRAwareDistR,
    IRAwareFCFS,
    ReadPolicy,
    SimConfig,
    StandardJEDEC,
    WorkloadConfig,
    generate_workload,
)
from repro.controller.engine import (
    OccupancyAccumulator,
    RequestQueue,
    load_groups,
)
from repro.controller.lut import StaticIRDropLUT
from repro.controller.request import (
    ReadRequest,
    read_trace,
    write_ramulator_trace,
)
from repro.dram import TimingParams
from repro.errors import ConfigurationError, SimulationError

SEEDS = (1, 20150607, 999)
POLICIES = ("standard", "ir_fcfs", "ir_distr")


@pytest.fixture(scope="module")
def timing():
    return TimingParams.ddr3_1600()


def _make_policy(name, timing, lut, constraint_mv=24.0):
    if name == "standard":
        return StandardJEDEC(timing)
    if name == "ir_fcfs":
        return IRAwareFCFS(lut, constraint_mv)
    return IRAwareDistR(lut, constraint_mv)


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


def _hmc_lut():
    """A solver-free LUT in the HMC's shape: 4 dies, 0..8 active banks
    each, ``1.25 mV`` per active bank plus ``0.5 mV`` per bank on the
    most loaded die (every value is exact in binary)."""
    table = {
        counts: 1.25 * sum(counts) + 0.5 * max(counts)
        for counts in itertools.product(range(9), repeat=4)
    }
    return StaticIRDropLUT(table, num_dies=4, max_banks_per_die=8)


#: extra IR of a state by its number of dies with an active bank: a
#: state whose banks sit on one to three dies carries ``4 mV`` more than
#: one spread over all four.
_IO_SHARE_MV = (0.0, 4.0, 4.0, 4.0, 0.0)


def _hmc_io_lut():
    """:func:`_hmc_lut` plus an I/O-share term (:data:`_IO_SHARE_MV`),
    so that the last bank of a die closing *raises* the IR drop: a state
    reached by admitted ACTs can drift into a violation, and the
    IR-aware policies shed banks to leave it."""
    table = {
        counts: 1.25 * sum(counts)
        + 0.5 * max(counts)
        + _IO_SHARE_MV[sum(1 for n in counts if n)]
        for counts in itertools.product(range(9), repeat=4)
    }
    return StaticIRDropLUT(table, num_dies=4, max_banks_per_die=8)


def _shape_case(name, timing, golden_lut):
    """``(SimConfig, policy, workload, report LUT)`` of a ``shape/*`` case."""
    group, policy_name = name.split("/")[1:]
    if group.startswith("hmc"):
        # ext_hmc's controller shape: 16 channels, 32 banks per die, up
        # to 8 active banks per die (2 per channel), saturating traffic.
        # "hmc_refresh" adds refresh over a longer stream; "hmc_shed"
        # runs under the I/O-share LUT at a constraint low enough that
        # closes drift into violating states.
        hmc_timing = TimingParams.hmc_2500()
        cfg = SimConfig(
            timing=hmc_timing,
            num_dies=4,
            banks_per_die=32,
            num_channels=16,
            max_banks_per_die=8,
            max_banks_per_channel=2,
            refresh_enabled=group == "hmc_refresh",
        )
        num_requests, seed, constraint_mv, lut = {
            "hmc": (2000, 41, 26.0, _hmc_lut()),
            "hmc_refresh": (6000, 43, 26.0, _hmc_lut()),
            "hmc_shed": (2000, 53, 15.0, _hmc_io_lut()),
        }[group]
        wc = WorkloadConfig(
            num_requests=num_requests,
            banks_per_die=32,
            arrival_interval=1,
            seed=seed,
            write_fraction=0.2,
        )
        policy = _make_policy(policy_name, hmc_timing, lut, constraint_mv)
        return cfg, policy, generate_workload(wc), lut
    if group == "qd2_refresh":
        cfg = SimConfig(timing=timing, queue_depth=2, refresh_enabled=True)
        wc = WorkloadConfig(num_requests=1500, seed=17, write_fraction=0.2)
    else:  # "conflict_cw0": writes and row conflicts, no idle window
        cfg = SimConfig(timing=timing, close_window=0, num_channels=2)
        wc = WorkloadConfig(
            num_requests=1500,
            seed=31,
            write_fraction=0.6,
            num_rows=3,
            row_hit_rate=0.5,
            arrival_interval=3,
        )
    policy = _make_policy(policy_name, timing, golden_lut)
    return cfg, policy, generate_workload(wc), golden_lut


SHAPE_CASES = (
    [f"shape/hmc/{p}" for p in POLICIES]
    + [f"shape/hmc_refresh/{p}" for p in POLICIES]
    + [f"shape/hmc_shed/{p}" for p in POLICIES[1:]]
    + ["shape/qd2_refresh/ir_distr"]
    + [f"shape/conflict_cw0/{p}" for p in POLICIES]
)


class TestEngineShapes:
    """Shapes the cases above leave out: ext_hmc's 16-channel shape,
    where DistR's die loads span 0..8, under a closed-form LUT -- as is,
    with refresh (per-die blackouts and the tRRD/tFAW window ending on
    many channels at once), and under an I/O-share LUT at 15 mV, where
    the IR-aware policies shed banks and a PRE on one channel admits an
    ACT on a later channel in the same cycle; DistR with a two-entry
    queue and refresh; and a write-heavy stream over three rows per bank
    with ``close_window=0``, where banks are often due to close while a
    queued request still wants their open row."""

    @pytest.mark.parametrize("name", SHAPE_CASES)
    def test_shape_case(self, timing, golden_lut, assert_golden, name):
        cfg, policy, workload, lut = _shape_case(name, timing, golden_lut)
        result = EventDrivenEngine(cfg, policy, workload, lut).run()
        assert_golden(name, result)


class TestTraceStream:
    """The shape of ``repro3d sim --trace`` on stacked DDR3: one channel,
    IR-DistR at 24 mV, refresh on, a 30%-write ramulator trace streamed
    through :func:`read_trace` (one request per cycle)."""

    def test_ddr3_mixed_distr(self, tmp_path, timing, golden_lut, assert_golden):
        path = tmp_path / "mixed.trace"
        wc = WorkloadConfig(num_requests=5000, seed=1, write_fraction=0.3)
        write_ramulator_trace(path, generate_workload(wc))
        cfg = SimConfig(timing=timing, refresh_enabled=True)
        result = EventDrivenEngine(
            cfg, IRAwareDistR(golden_lut, 24.0), read_trace(path), golden_lut
        ).run()
        assert_golden("trace/ddr3_mixed_distr", result)


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


class _StandardLog(_ActLog, StandardJEDEC):
    pass


class _MayRead(IRAwareFCFS):
    def may_read(self, die, now, active_counts):
        return True


class _MayActivate(StandardJEDEC):
    def may_activate(self, die, now, active_counts):
        return True


class _OwnWindow(IRAwareDistR):
    def act_candidates(self, non_ready, active_counts):
        return list(non_ready)


class _Bare(ReadPolicy):
    name = "bare"


class TestPolicyGuard:
    """The engine serves the three policies with its own admission and
    window rules, so a policy it would not call as written is refused
    when the engine is built, naming the class and the hook."""

    @pytest.mark.parametrize(
        "cls, hook",
        [
            (_MayRead, "may_read"),
            (_MayActivate, "may_activate"),
            (_OwnWindow, "act_candidates"),
        ],
    )
    def test_override_is_rejected(self, timing, golden_lut, cls, hook):
        if issubclass(cls, StandardJEDEC):
            policy = cls(timing)
        else:
            policy = cls(golden_lut, 24.0)
        with pytest.raises(
            ConfigurationError, match=f"{cls.__name__} overrides {hook}"
        ):
            EventDrivenEngine(SimConfig(timing=timing), policy, [])

    def test_other_policy_is_rejected(self, timing):
        with pytest.raises(ConfigurationError, match="_Bare is not"):
            EventDrivenEngine(SimConfig(timing=timing), _Bare(), [])

    def test_observer_runs(self, timing):
        """Overriding ``reset`` and ``on_activate`` only observes (the
        IR-aware observers run in :class:`TestDistRScheduling`)."""
        policy = _StandardLog(timing)
        wl = generate_workload(WorkloadConfig(num_requests=200, seed=5))
        result = EventDrivenEngine(SimConfig(timing=timing), policy, wl).run()
        assert result.finished
        assert len(policy.acts) == result.activations > 0


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
        """A list or tuple workload is replayed from its start on every
        run."""
        cfg = SimConfig(timing=timing, num_channels=2)
        workload = generate_workload(WorkloadConfig(num_requests=300, seed=4))
        for container in (list, tuple):
            engine = EventDrivenEngine(
                cfg, StandardJEDEC(timing), container(workload)
            )
            assert asdict(engine.run()) == asdict(engine.run())

    def test_stream_runs_once(self, timing):
        """A stream cannot be replayed: a second run raises instead of
        returning an empty result that claims to have finished."""
        cfg = SimConfig(timing=timing)
        workload = generate_workload(WorkloadConfig(num_requests=300, seed=4))
        engine = EventDrivenEngine(cfg, StandardJEDEC(timing), iter(workload))
        assert engine.run().completed == 300
        with pytest.raises(SimulationError, match="stream is consumed"):
            engine.run()

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


class TestRequestQueueBookkeeping:
    """``RequestQueue`` against a reference rebuilt from scratch after
    every event of random arrive / open / precharge / issue sequences.

    The reference is the definition: an entry is ready when its bank is
    open at the entry's row; a bank's hits are a scan of the queue; the
    order is a stable sort of the queue by the target die's load
    (per-die buckets, DistR) or plain arrival order (one bucket per
    channel, FCFS)."""

    C, D, B = 2, 3, 4  # channels, dies, banks per die

    def _channel(self, i):
        return (i % self.B) * self.C // self.B

    def _check(self, queue, queued, open_row, rng, per_die):
        hits = [0] * (self.D * self.B)
        for e in queued:
            if open_row[e[1]] == e[2].row:
                hits[e[1]] += 1
        assert queue.hits == hits
        for i in range(self.D * self.B):
            assert queue.by_bank[i] == [e for e in queued if e[1] == i]
        counts = tuple(rng.randrange(3) for _ in range(self.D))
        groups = load_groups(counts)
        for c in range(self.C):
            mine = [e for e in queued if self._channel(e[1]) == c]
            ready = [e for e in mine if open_row[e[1]] == e[2].row]
            waiting = [e for e in mine if open_row[e[1]] != e[2].row]
            assert queue.size[c] == len(mine)
            assert queue.n_ready[c] == len(ready)
            for lists, want in ((queue.ready[c], ready), (queue.waiting[c], waiting)):
                buckets = lists if per_die else lists[:1]
                for bucket in buckets:
                    assert bucket == sorted(bucket)
                assert sorted(e for b in buckets for e in b) == want
            if per_die:
                ready.sort(key=lambda e: counts[e[2].die])
                waiting.sort(key=lambda e: counts[e[2].die])
            assert queue.ready_order(c, groups) == ready
            for k in (1, 2, 4):
                assert queue.waiting_head(c, groups, k) == waiting[:k]

    @pytest.mark.parametrize("per_die", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference(self, per_die, seed):
        rng = random.Random(seed)
        n = self.D * self.B
        queue = RequestQueue(self.C, self.D, self.B, per_die=per_die)
        open_row = [-1] * n  # -1: the bank is not open
        queued = []
        for seq in range(400):
            i = rng.randrange(n)
            c = self._channel(i)
            op = rng.random()
            if op < 0.4 and len(queued) < 20:
                req = ReadRequest(seq, i // self.B, i % self.B, rng.randrange(3), 0)
                entry = (seq, i, req)
                assert queue.push(c, entry, open_row[i]) == (open_row[i] == req.row)
                queued.append(entry)
            elif op < 0.6 and open_row[i] < 0:
                open_row[i] = rng.randrange(3)
                hit = sum(e[1] == i and e[2].row == open_row[i] for e in queued)
                assert queue.open_bank(c, i, open_row[i]) == hit
            elif op < 0.75 and open_row[i] >= 0:
                queue.close_bank(c, i, open_row[i])
                open_row[i] = -1
            else:
                ready = [e for e in queued if open_row[e[1]] == e[2].row]
                if not ready:
                    continue
                entry = rng.choice(ready)
                queued.remove(entry)
                left = sum(e[1] == entry[1] and e[2].row == entry[2].row for e in queued)
                assert queue.pop(self._channel(entry[1]), entry) == left
            self._check(queue, queued, open_row, rng, per_die)

    def test_load_groups(self):
        assert load_groups((1, 0, 2, 0)) == ((1, 3), (0,), (2,))
        assert load_groups((0, 0, 0)) == ((0, 1, 2),)
