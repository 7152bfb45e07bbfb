"""Event-driven memory controller core.

This is the only controller engine: every experiment, ``repro3d sim``
and the benchmarks run it.  It implements the *decision logic* of
the paper's controller (section 2.3) -- per-bank FSMs, one command per
channel per cycle, tRRD/tFAW or IR-LUT admission -- with flat per-bank
state vectors and an event queue that jumps straight to the next cycle
at which anything can change.  Its decisions are pinned to recorded
reference results: ``tests/golden/controller_decisions.json`` holds the
full :class:`SimResult` recorded from a per-cycle reference loop on seeded
workloads across all shipped policies, and
``tests/test_engine_equivalence.py`` requires every field to match.

Design
======

* **Vectorized bank state.**  All per-bank state lives in flat arrays
  indexed ``die * banks_per_die + bank``: FSM code (0 idle,
  1 activating, 2 active, 3 precharging), open row, next-ready cycle,
  ACT cycle, last column-op cycle, and last-activity cycle (the idle
  close deadline base).  The authoritative copies are numpy ``int64``
  arrays (``BankStateVec``); the scheduling scan reads through plain
  Python list views of the same values because scalar indexing into
  small numpy arrays costs more than the arithmetic it feeds.  All
  mutations go through the vector so the two views cannot diverge.

* **Event skipping as a vector min.**  When no command issues, the next
  interesting cycle is the minimum over bank deadlines (state
  transitions, tCCD/tRAS/tWR windows, idle-close deadlines), channel
  command/data bus free times, the next arrival, refresh deadlines, and
  the policy's activation window.  For large configurations (HMC-class:
  128+ banks) the bank term is computed as a masked numpy vector min;
  for small ones an incremental scan over the (few) non-idle banks is
  faster and produces the same minimum — a property test asserts both
  paths agree.

* **One channel-partitioned issue pass.**  Within one cycle, whether a
  command issues on channel ``c`` depends only on ``c``'s buses, ``c``'s
  banks, and the active counts.  The queue is therefore kept per
  channel, with each channel's ready / non-ready split cached until an
  event can change it (arrival, completion, precharge, or a bank
  finishing activation).  Every policy runs on this pass.  FCFS policies
  keep arrival order and hand ``act_candidates`` the oldest
  ``act_lookahead`` waiting requests.  For ``IRAwareDistR``, recognised
  by type, the engine stable-sorts both lists by the target die's
  active-bank count, hands ``act_candidates`` the whole sorted waiting
  list, and ranks channels for activation by their list head's (die
  load, arrival).

* **Streaming workloads.**  The engine consumes any iterable of
  :class:`~repro.controller.request.ReadRequest` through one pull-ahead
  cursor.  A list or tuple is validated up front and can be run again;
  any other iterable (a lazy trace reader) is validated as it is pulled,
  which is what makes multi-million-request runs possible without
  holding the whole trace's request objects alive.

* **Bounded state tracking.**  ``SimResult.state_occupancy`` is a
  sparse histogram capped at ``SimConfig.max_tracked_states`` distinct
  states; cycles spent in states beyond the cap are counted in
  ``SimResult.states_dropped`` (and the ``sim.states.dropped`` metric)
  instead of growing memory without bound on long trace runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np
from numpy.typing import NDArray

from repro.controller.lut import IRDropLUT, StaticIRDropLUT
from repro.controller.policies import (
    IRAwareDistR,
    IRAwareFCFS,
    ReadPolicy,
    StandardJEDEC,
)
from repro.controller.request import ReadRequest
from repro.dram.timing import TimingParams
from repro.errors import SimulationError
from repro.obs import metrics as _metrics
from repro.obs.trace import span

#: sentinel larger than any reachable cycle count.
_FAR: int = 1 << 62

#: bank-count threshold above which the vectorized next-event min and
#: idle-close eligibility masks beat the incremental scalar scans.
_VEC_THRESHOLD: int = 48

#: one queue entry: (request, flat bank index, global arrival sequence
#: number).
_Entry = Tuple[ReadRequest, int, int]


@dataclass(frozen=True)
class SimConfig:
    """Structural parameters of the simulated memory system."""

    timing: TimingParams
    num_dies: int = 4
    banks_per_die: int = 8
    num_channels: int = 1
    queue_depth: int = 32
    #: interleave limit: max simultaneously active banks per die
    #: ("interleaving mode reads two banks per die in maximum to avoid
    #: current overdrawn from charge pump", section 2.3).
    max_banks_per_die: int = 2
    #: optional per-(die, channel) interleave limit for multi-channel
    #: parts (Wide I/O, HMC): the charge-pump limit is per channel there,
    #: while max_banks_per_die caps the die aggregate.
    max_banks_per_channel: Optional[int] = None
    #: idle cycles after which an open bank is precharged.
    close_window: int = 8
    #: issue periodic per-die refreshes (tREFI / tRFC).  Off by default:
    #: the paper's study is refresh-free; enable for realism studies.
    refresh_enabled: bool = False
    #: cap on distinct memory states tracked in
    #: ``SimResult.state_occupancy``; cycles in states beyond the cap
    #: accumulate in ``SimResult.states_dropped`` instead of growing the
    #: histogram (multi-million-request traces can otherwise visit an
    #: unbounded set of states).  The paper's 4-die / 2-bank studies
    #: have at most 3^4 = 81 states, so the default never binds there.
    max_tracked_states: int = 4096

    def channel_of(self, bank: int) -> int:
        """Bank -> channel mapping (banks striped across channels)."""
        return bank * self.num_channels // self.banks_per_die


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    policy_name: str
    cycles: int
    runtime_us: float
    completed: int
    bandwidth_reads_per_clk: float
    max_ir_mv: Optional[float]
    activations: int
    precharges: int
    refreshes: int
    state_occupancy: Dict[Tuple[int, ...], int]
    mean_queue_depth: float
    mean_latency_cycles: float
    finished: bool
    #: completed column commands split by direction (reads + writes ==
    #: completed).
    reads: int = 0
    writes: int = 0
    #: cycles spent in states beyond ``SimConfig.max_tracked_states``.
    states_dropped: int = 0

    @property
    def commands(self) -> Dict[str, int]:
        """Per-command issue counts (the energy ledger's input)."""
        return {
            "ACT": self.activations,
            "PRE": self.precharges,
            "RD": self.reads,
            "WR": self.writes,
            "REF": self.refreshes,
        }

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        ir = f"{self.max_ir_mv:.2f} mV" if self.max_ir_mv is not None else "n/a"
        return (
            f"{self.policy_name}: {self.runtime_us:.2f} us, "
            f"{self.bandwidth_reads_per_clk:.3f} reads/clk, max IR {ir}"
        )


class OccupancyAccumulator:
    """Sparse, bounded state-occupancy histogram.

    A state already tracked always accumulates; a *new* state is only admitted
    while the histogram holds fewer than ``cap`` entries, and cycles in
    overflow states are summed in :attr:`dropped` instead.
    """

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.table: Dict[Tuple[int, ...], int] = {}
        self.dropped = 0

    def add(self, state: Tuple[int, ...], cycles: int) -> None:
        table = self.table
        if state in table:
            table[state] += cycles
        elif len(table) < self.cap:
            table[state] = cycles
        else:
            self.dropped += cycles


class BankStateVec:
    """Flat per-bank state vectors indexed ``die * banks_per_die + bank``.

    The numpy arrays are the authoritative storage (and what the
    vectorized next-event / eligibility math runs over); the ``*_l``
    attributes are plain-list views of the same values for the scalar
    scheduling scan.  Mutations must go through the ``set_*`` helpers so
    the two views stay identical.
    """

    def __init__(self, num_banks: int) -> None:
        neg = -(10**9)
        self.st: NDArray[np.int64] = np.zeros(num_banks, dtype=np.int64)
        self.row: NDArray[np.int64] = np.full(num_banks, -1, dtype=np.int64)
        self.rdy: NDArray[np.int64] = np.zeros(num_banks, dtype=np.int64)
        self.act: NDArray[np.int64] = np.full(num_banks, neg, dtype=np.int64)
        self.col: NDArray[np.int64] = np.full(num_banks, neg, dtype=np.int64)
        self.lact: NDArray[np.int64] = np.full(num_banks, neg, dtype=np.int64)
        self.st_l: List[int] = [0] * num_banks
        self.row_l: List[int] = [-1] * num_banks
        self.rdy_l: List[int] = [0] * num_banks
        self.act_l: List[int] = [neg] * num_banks
        self.col_l: List[int] = [neg] * num_banks
        self.lact_l: List[int] = [neg] * num_banks

    def set_st(self, i: int, v: int) -> None:
        self.st[i] = v
        self.st_l[i] = v

    def set_row(self, i: int, v: int) -> None:
        self.row[i] = v
        self.row_l[i] = v

    def set_rdy(self, i: int, v: int) -> None:
        self.rdy[i] = v
        self.rdy_l[i] = v

    def set_act(self, i: int, v: int) -> None:
        self.act[i] = v
        self.act_l[i] = v

    def set_col(self, i: int, v: int) -> None:
        self.col[i] = v
        self.col_l[i] = v

    def set_lact(self, i: int, v: int) -> None:
        self.lact[i] = v
        self.lact_l[i] = v

    def consistent(self) -> bool:
        """The list views mirror the vectors (debug/test invariant)."""
        return (
            self.st.tolist() == self.st_l
            and self.row.tolist() == self.row_l
            and self.rdy.tolist() == self.rdy_l
            and self.act.tolist() == self.act_l
            and self.col.tolist() == self.col_l
            and self.lact.tolist() == self.lact_l
        )


class EventDrivenEngine:
    """Event-driven controller simulation (see module docstring).

    Decisions are pinned to ``tests/golden/controller_decisions.json``;
    accepts either a materialized request list or a streaming iterable.
    """

    def __init__(
        self,
        config: SimConfig,
        policy: ReadPolicy,
        workload: Iterable[ReadRequest],
        report_lut: Optional[IRDropLUT | StaticIRDropLUT] = None,
    ) -> None:
        self.config = config
        self.policy = policy
        self.report_lut = report_lut
        #: request count when known up front (-1 for a stream).
        self._total = -1
        self._source: Callable[[], Iterator[ReadRequest]]
        if isinstance(workload, (list, tuple)):
            for req in workload:
                self._validate(req)
            self._total = len(workload)
            self._source = lambda: iter(workload)
        else:
            stream = map(self._validate, workload)
            self._source = lambda: stream

    def _validate(self, req: ReadRequest) -> ReadRequest:
        cfg = self.config
        if not (0 <= req.die < cfg.num_dies):
            raise SimulationError(
                f"request {req.req_id}: die {req.die} out of range"
            )
        if not (0 <= req.bank < cfg.banks_per_die):
            raise SimulationError(
                f"request {req.req_id}: bank {req.bank} out of range"
            )
        return req

    # -- public API ----------------------------------------------------------

    def run(self, max_cycles: int = 5_000_000) -> SimResult:
        """Simulate until the workload drains (or ``max_cycles``).

        The run executes inside a ``sim.run`` trace span (with
        ``engine="event"`` provenance) and pushes queue-depth,
        cycle-count, and command-mix metrics into the global registry.
        """
        with span(
            "sim.run",
            policy=self.policy.name,
            requests=self._total,
            engine="event",
        ):
            result = self._run(max_cycles)
        _metrics.inc("sim.runs")
        _metrics.inc("sim.requests_completed", result.completed)
        _metrics.inc("sim.activations", result.activations)
        _metrics.observe("sim.mean_queue_depth", result.mean_queue_depth)
        _metrics.observe("sim.cycles", float(result.cycles))
        if result.states_dropped:
            _metrics.inc("sim.states.dropped", result.states_dropped)
        return result

    # -- main loop -----------------------------------------------------------

    def _run(self, max_cycles: int) -> SimResult:
        # The loop is deliberately one large function: it is the hot core
        # of every simulation and the call overhead of factoring it into
        # helpers is measurable at millions of iterations.
        cfg = self.config
        policy = self.policy
        policy.reset()
        timing = cfg.timing
        D = cfg.num_dies
        B = cfg.banks_per_die
        N = D * B
        C = cfg.num_channels
        tCL = timing.tCL
        tCWL = timing.tCWL
        tCCD = timing.tCCD
        tRCD = timing.tRCD
        tRP = timing.tRP
        tRAS = timing.tRAS
        tWR = timing.tWR
        tRFC = timing.tRFC
        tREFI = timing.tREFI
        burst = timing.burst_cycles
        close_window = cfg.close_window
        depth = cfg.queue_depth
        max_per_die = cfg.max_banks_per_die
        max_per_chan = cfg.max_banks_per_channel
        refresh_enabled = cfg.refresh_enabled
        chan_of_bank = [cfg.channel_of(b) for b in range(B)]
        use_vec = N >= _VEC_THRESHOLD
        std_policy = policy if isinstance(policy, StandardJEDEC) else None
        # DistR ranks waiting requests by their die's active-bank count.
        balance = isinstance(policy, IRAwareDistR)
        # Earliest cycle the JEDEC tRRD/tFAW windows admit an ACT.  Only
        # on_activate moves the windows, so this is recomputed once per
        # ACT instead of every scheduling iteration.
        act_window = 0

        # may_read dispatch: the always-true default, the IR-aware
        # counts-only check (uniform across dies, cacheable per state), or
        # an arbitrary override called per request.
        lookahead = policy.act_lookahead
        mr_fn = type(policy).may_read
        if mr_fn is ReadPolicy.may_read:
            mr_kind = 0  # always True
        elif mr_fn is IRAwareFCFS.may_read:
            mr_kind = 1  # depends only on active counts: cache per state
        else:
            mr_kind = 2  # arbitrary override: call per request
        mr_cache: Dict[Tuple[int, ...], bool] = {}
        # The stock act_candidates would return the FCFS window cache_nr
        # unchanged; skipping the call matters at 16 channels.
        own_window = type(policy).act_candidates is not ReadPolicy.act_candidates
        # may_activate dispatch: StandardJEDEC's is die- and
        # counts-independent, so one evaluation covers the whole cycle (an
        # ACT re-arms tRRD, blocking further ACTs this cycle); IRAwareFCFS's
        # depends only on (counts, die), so it caches.
        ma_fn = type(policy).may_activate
        if ma_fn is StandardJEDEC.may_activate:
            ma_kind = 1
        elif ma_fn is IRAwareFCFS.may_activate:
            ma_kind = 2
        else:
            ma_kind = 0
        ma_cache: Dict[Tuple[Tuple[int, ...], int], bool] = {}

        vec = BankStateVec(N)
        st = vec.st_l
        rowv = vec.row_l
        rdy = vec.rdy_l
        act = vec.act_l
        col = vec.col_l
        lact = vec.lact_l

        # Channel buses.
        cmd_free = [0] * C
        data_free = [0] * C

        # Workload cursor: one pulled-ahead request, None once drained.
        source = self._source()
        arrived = 0
        next_req = next(source, None)
        next_arrival = _FAR if next_req is None else next_req.arrival_cycle

        # Request queue, partitioned per channel in arrival order, with a
        # cached ready / non-ready split per channel (in DistR order for
        # a balancing policy, re-sorted whenever the counts change).
        q_by_chan: List[List[_Entry]] = [[] for _ in range(C)]
        q_len = 0
        dirty = [True] * C
        cache_ready: List[List[_Entry]] = [[] for _ in range(C)]
        cache_nr: List[List[ReadRequest]] = [[] for _ in range(C)]
        cache_head = [0] * C  # arrival seq of cache_nr[c][0]
        cache_counts: List[Tuple[int, ...]] = [()] * C  # DistR sort key

        # Incremental bookkeeping.
        counts = [0] * D  # is_active (ACTIVATING|ACTIVE) banks per die
        nonidle = [0] * D  # banks not in IDLE (includes PRECHARGING)
        act_by_die_chan = [[0] * C for _ in range(D)]
        transient: Set[int] = set()  # banks in state 1 or 3
        open_set: Set[int] = set()  # banks in state 2
        min_close = _FAR  # conservative-low idle-close deadline
        used_mark = [0] * C  # used_mark[c] == gen: channel issued this cycle
        gen = 0

        next_refresh = [(d + 1) * tREFI // D for d in range(D)]
        refresh_blocked_until = [0] * D
        no_refresh_due = [False] * D

        occ = OccupancyAccumulator(cfg.max_tracked_states)
        occ_cycles = 0
        occ_samples = 0
        completed = 0
        activations = 0
        precharges = 0
        refreshes = 0
        reads_n = 0
        writes_n = 0
        latency_sum = 0
        read_states: Set[Tuple[int, ...]] = set()
        command_states: Set[Tuple[int, ...]] = set()
        shed_cache: Dict[Tuple[int, ...], bool] = {}
        now = 0
        prev_now = 0
        last_state: Optional[Tuple[int, ...]] = None

        while True:
            if next_req is None and completed >= arrived:
                break
            if now >= max_cycles:
                break

            # --- arrivals (stall when the queue is full) -------------------
            if next_arrival <= now and q_len < depth:
                while (
                    next_req is not None
                    and q_len < depth
                    and next_req.arrival_cycle <= now
                ):
                    b = next_req.bank
                    c = chan_of_bank[b]
                    q_by_chan[c].append((next_req, next_req.die * B + b, arrived))
                    dirty[c] = True
                    q_len += 1
                    arrived += 1
                    next_req = next(source, None)
                next_arrival = (
                    _FAR if next_req is None else next_req.arrival_cycle
                )

            # --- sync transient banks; occupancy accounting ----------------
            if transient:
                for i in tuple(transient):
                    if rdy[i] <= now:
                        if st[i] == 1:
                            vec.set_st(i, 2)
                            open_set.add(i)
                            dl = lact[i] + close_window
                            if dl < min_close:
                                min_close = dl
                            dirty[chan_of_bank[i % B]] = True
                        else:  # state 3: precharge finished
                            vec.set_st(i, 0)
                            nonidle[i // B] -= 1
                        transient.discard(i)
            counts_t = tuple(counts)
            if last_state is not None and now > prev_now:
                w = now - prev_now
                occ.add(last_state, w)
                occ_cycles += q_len * w
                occ_samples += w
            prev_now = now
            last_state = counts_t

            issued_any = False
            gen += 1
            used_n = 0

            # --- refresh (per die, staggered deadlines) --------------------
            if refresh_enabled:
                refresh_due = [now >= next_refresh[d] for d in range(D)]
                any_due = True in refresh_due
                if any_due:
                    for d in range(D):
                        if not refresh_due[d] or nonidle[d]:
                            continue
                        c0 = chan_of_bank[0]
                        if used_mark[c0] != gen and now >= cmd_free[c0]:
                            cmd_free[c0] = now + 1
                            used_mark[c0] = gen
                            used_n += 1
                            blocked = now + tRFC
                            refresh_blocked_until[d] = blocked
                            base = d * B
                            for j in range(base, base + B):
                                if rdy[j] < blocked:
                                    vec.set_rdy(j, blocked)
                            next_refresh[d] += tREFI
                            refreshes += 1
                            issued_any = True
            else:
                refresh_due = no_refresh_due
                any_due = False

            # --- issue phase -----------------------------------------------
            # Pass 1: opportunistic column commands to open rows, in
            # policy order.  Pass 2: per free channel, one activation
            # candidate chosen by the policy may ACT, or PRE its bank on
            # a row mismatch.
            if q_len:
                if mr_kind == 1:
                    mr_val = mr_cache.get(counts_t)
                    if mr_val is None:
                        mr_val = policy.may_read(0, now, counts_t)
                        mr_cache[counts_t] = mr_val
                    reads_possible = mr_val
                else:
                    reads_possible = True
                p2: List[Tuple[int, int, int]] = []
                for c in range(C):
                    lst = q_by_chan[c]
                    if not lst or used_mark[c] == gen or now < cmd_free[c]:
                        continue
                    if dirty[c] or (balance and cache_counts[c] != counts_t):
                        rc: List[_Entry] = []
                        nre: List[_Entry] = []
                        for e in lst:
                            i = e[1]
                            if st[i] == 2 and rowv[i] == e[0].row:
                                rc.append(e)
                            elif balance or len(nre) < lookahead:
                                nre.append(e)
                        if balance:
                            # Stable: arrival order breaks die-load ties.
                            rc.sort(key=lambda e: counts_t[e[0].die])
                            nre.sort(key=lambda e: counts_t[e[0].die])
                            cache_counts[c] = counts_t
                        nr = [e[0] for e in nre]
                        cache_ready[c] = rc
                        cache_nr[c] = nr
                        if nre:
                            cache_head[c] = nre[0][2]
                        dirty[c] = False
                    else:
                        rc = cache_ready[c]
                        nr = cache_nr[c]
                    issued_here = False
                    if rc and reads_possible:
                        r_ok = now + tCL >= data_free[c]
                        w_ok = now + tCWL >= data_free[c]
                        if r_ok or w_ok:
                            for e in rc:
                                req = e[0]
                                i = e[1]
                                if now < rdy[i] or now < col[i] + tCCD:
                                    continue
                                if req.is_write:
                                    if not w_ok:
                                        continue
                                elif not r_ok:
                                    continue
                                if mr_kind == 2 and not policy.may_read(
                                    req.die, now, counts_t
                                ):
                                    continue
                                if refresh_enabled and refresh_due[req.die]:
                                    continue
                                cmd_free[c] = now + 1
                                if req.is_write:
                                    end = now + tCWL + burst
                                    writes_n += 1
                                else:
                                    end = now + tCL + burst
                                    reads_n += 1
                                data_free[c] = end
                                vec.set_col(i, now)
                                vec.set_lact(i, now)
                                req.issue_cycle = now
                                req.complete_cycle = end
                                latency_sum += end - req.arrival_cycle
                                for pos, ee in enumerate(lst):
                                    if ee is e:
                                        del lst[pos]
                                        break
                                q_len -= 1
                                dirty[c] = True
                                completed += 1
                                read_states.add(counts_t)
                                used_mark[c] = gen
                                used_n += 1
                                issued_any = True
                                issued_here = True
                                break
                    if not issued_here and nr:
                        load = counts_t[nr[0].die] if balance else 0
                        p2.append((load, cache_head[c], c))
                # Pass 2: channels take turns by the rank of their
                # waiting list's head, (die load, arrival) under DistR and
                # plain arrival otherwise.  The policy picks the window
                # from that list under the counts as they stand now.
                if p2:
                    if len(p2) > 1:
                        p2.sort()
                    act_ok = ma_kind != 1 or now >= act_window
                    for _, _, c in p2:
                        window = cache_nr[c]
                        if own_window:
                            window = policy.act_candidates(window, counts_t)
                        for req in window:
                            d = req.die
                            i = d * B + req.bank
                            if st[i] == 0 and now >= rdy[i]:
                                if not act_ok:
                                    continue
                                if counts[d] >= max_per_die:
                                    continue
                                if (
                                    max_per_chan is not None
                                    and act_by_die_chan[d][c] >= max_per_chan
                                ):
                                    continue
                                if refresh_enabled and (
                                    refresh_due[d]
                                    or now < refresh_blocked_until[d]
                                ):
                                    continue
                                if ma_kind == 2:
                                    mkey = (counts_t, d)
                                    ok = ma_cache.get(mkey)
                                    if ok is None:
                                        ok = policy.may_activate(
                                            d, now, counts_t
                                        )
                                        ma_cache[mkey] = ok
                                    if not ok:
                                        continue
                                elif ma_kind == 0 and not policy.may_activate(
                                    d, now, counts_t
                                ):
                                    continue
                                vec.set_st(i, 1)
                                vec.set_row(i, req.row)
                                vec.set_act(i, now)
                                vec.set_rdy(i, now + tRCD)
                                vec.set_lact(i, now)
                                transient.add(i)
                                nonidle[d] += 1
                                counts[d] += 1
                                act_by_die_chan[d][c] += 1
                                counts_t = tuple(counts)
                                cmd_free[c] = now + 1
                                policy.on_activate(d, now)
                                if std_policy is not None:
                                    act_window = std_policy.earliest_activate(
                                        now
                                    )
                                    act_ok = False  # tRRD re-armed at now
                                command_states.add(counts_t)
                                activations += 1
                                used_mark[c] = gen
                                used_n += 1
                                issued_any = True
                                break
                            if (
                                st[i] == 2
                                and rowv[i] != req.row
                                and now >= act[i] + tRAS
                                and now >= col[i] + tWR
                            ):
                                bb = req.bank
                                rr = rowv[i]
                                hit = False
                                for e in q_by_chan[c]:
                                    r2 = e[0]
                                    if (
                                        r2.die == d
                                        and r2.bank == bb
                                        and r2.row == rr
                                    ):
                                        hit = True
                                        break
                                if hit:
                                    continue
                                vec.set_st(i, 3)
                                vec.set_row(i, -1)
                                vec.set_rdy(i, now + tRP)
                                open_set.discard(i)
                                transient.add(i)
                                counts[d] -= 1
                                act_by_die_chan[d][c] -= 1
                                counts_t = tuple(counts)
                                cmd_free[c] = now + 1
                                precharges += 1
                                used_mark[c] = gen
                                used_n += 1
                                issued_any = True
                                dirty[c] = True
                                break

            # --- idle close ("a few cycles" without reads) -----------------
            # Gated on a conservative-low deadline so quiescent cycles
            # skip the scan entirely; under a violating drift state the
            # IR-aware policies *shed* banks even if queued requests
            # still want their rows (window permitting).
            if open_set and (any_due or now >= min_close):
                shedding = shed_cache.get(counts_t)
                if shedding is None:
                    shedding = policy.must_shed(counts_t)
                    shed_cache[counts_t] = shedding
                if use_vec:
                    elig = (
                        (vec.st == 2)
                        & (vec.act + tRAS <= now)
                        & (vec.col + tWR <= now)
                    )
                    candidates = [int(x) for x in np.nonzero(elig)[0]]
                else:
                    candidates = sorted(open_set)
                for i in candidates:
                    if st[i] != 2:
                        continue
                    d = i // B
                    b = i % B
                    c = chan_of_bank[b]
                    if used_mark[c] == gen:
                        continue
                    force_close = refresh_enabled and refresh_due[d]
                    if not (force_close or now - lact[i] >= close_window):
                        continue
                    if now < act[i] + tRAS or now < col[i] + tWR:
                        continue
                    if not (shedding or force_close):
                        rr = rowv[i]
                        hit = False
                        for e in q_by_chan[c]:
                            r2 = e[0]
                            if r2.die == d and r2.bank == b and r2.row == rr:
                                hit = True
                                break
                        if hit:
                            continue
                    if now < cmd_free[c]:
                        continue
                    vec.set_st(i, 3)
                    vec.set_row(i, -1)
                    vec.set_rdy(i, now + tRP)
                    open_set.discard(i)
                    transient.add(i)
                    counts[d] -= 1
                    act_by_die_chan[d][c] -= 1
                    cmd_free[c] = now + 1
                    precharges += 1
                    used_mark[c] = gen
                    used_n += 1
                    issued_any = True
                    dirty[c] = True
                # Recompute the deadline floor for the skip gate: each
                # open bank cannot close before its window elapses AND
                # tRAS/tWR are met (queue targets and bus contention only
                # delay further, and lact/col/act never move backward, so
                # the min over these maxima stays a valid lower bound).
                if open_set:
                    mn = _FAR
                    for i in open_set:
                        dl2 = lact[i] + close_window
                        v2 = act[i] + tRAS
                        if v2 > dl2:
                            dl2 = v2
                        v2 = col[i] + tWR
                        if v2 > dl2:
                            dl2 = v2
                        if dl2 < mn:
                            mn = dl2
                    min_close = mn
                else:
                    min_close = _FAR

            # --- advance time ----------------------------------------------
            if issued_any:
                now += 1
                continue

            best = _FAR
            if q_len < depth and next_arrival < _FAR:
                v = next_arrival
                if v <= now:
                    v = now + 1
                if v < best:
                    best = v
            if use_vec and len(transient) + len(open_set) >= _VEC_THRESHOLD:
                v = self._bank_events_vec(
                    vec, now, tCCD, tRAS, tWR, close_window
                )
                if v < best:
                    best = v
            else:
                for i in transient:
                    v = rdy[i]
                    if now < v < best:
                        best = v
                for i in open_set:
                    v = col[i] + tCCD
                    if rdy[i] > v:
                        v = rdy[i]
                    if now < v < best:
                        best = v
                    v = act[i] + tRAS
                    if now < v < best:
                        best = v
                    v = col[i] + tWR
                    if now < v < best:
                        best = v
                    v = lact[i] + close_window
                    if now < v < best:
                        best = v
            for c in range(C):
                v = cmd_free[c]
                if now < v < best:
                    best = v
                if data_free[c] > now:
                    v = data_free[c] - tCL
                    if v < now:
                        v = now
                    if now < v < best:
                        best = v
            if std_policy is not None and now < act_window < best:
                best = act_window
            if refresh_enabled:
                for v in next_refresh:
                    if now < v < best:
                        best = v
                for v in refresh_blocked_until:
                    if now < v < best:
                        best = v
            if best == _FAR:
                if q_len == 0 and next_req is None:
                    # All work drained; only in-flight bursts remain.
                    now = now + 1
                    continue
                known = self._total if self._total >= 0 else "?"
                raise SimulationError(
                    f"simulation stalled at cycle {now}: queue depth "
                    f"{q_len}, {arrived}/{known} arrived"
                )
            now = best

        # Final occupancy flush.
        if last_state is not None and now > prev_now:
            occ.add(last_state, now - prev_now)

        finished = next_req is None and completed >= arrived
        cycles = now
        max_ir = self._max_visited_ir(read_states | command_states)
        return SimResult(
            policy_name=policy.name,
            cycles=cycles,
            runtime_us=timing.cycles_to_us(cycles),
            completed=completed,
            bandwidth_reads_per_clk=completed / cycles if cycles else 0.0,
            max_ir_mv=max_ir,
            activations=activations,
            precharges=precharges,
            refreshes=refreshes,
            state_occupancy=occ.table,
            mean_queue_depth=occ_cycles / occ_samples if occ_samples else 0.0,
            mean_latency_cycles=latency_sum / completed if completed else 0.0,
            finished=finished,
            reads=reads_n,
            writes=writes_n,
            states_dropped=occ.dropped,
        )

    @staticmethod
    def _bank_events_vec(
        vec: BankStateVec,
        now: int,
        tCCD: int,
        tRAS: int,
        tWR: int,
        close_window: int,
    ) -> int:
        """Earliest future bank deadline as a masked vector min."""
        st = vec.st
        trans = (st == 1) | (st == 3)
        open_m = st == 2
        best = _FAR
        if bool(trans.any()):
            sel = np.where(trans & (vec.rdy > now), vec.rdy, _FAR)
            best = min(best, int(sel.min()))
        if bool(open_m.any()):
            col_next = np.maximum(vec.rdy, vec.col + tCCD)
            for arr in (
                col_next,
                vec.act + tRAS,
                vec.col + tWR,
                vec.lact + close_window,
            ):
                sel = np.where(open_m & (arr > now), arr, _FAR)
                best = min(best, int(sel.min()))
        return best

    def _max_visited_ir(
        self, states: Set[Tuple[int, ...]]
    ) -> Optional[float]:
        """Worst IR over states in effect while commands/reads flowed.

        States reached only by drift (banks closing elsewhere) with no
        reads issued carry almost no dynamic current, so they are not
        counted -- matching the paper's accounting, where the IR-aware
        policy's reported maximum stays below its constraint."""
        if self.report_lut is None:
            return None
        worst = 0.0
        for counts in states:
            if sum(counts) > 0:
                worst = max(worst, self.report_lut.lookup(counts))
        return worst
