"""Event-driven memory controller core.

This is the only controller engine: every experiment, ``repro3d sim``
and the benchmarks run it.  It implements the *decision logic* of
the paper's controller (section 2.3) -- per-bank FSMs, one command per
channel per cycle, tRRD/tFAW or IR-LUT admission -- with flat per-bank
state lists and an event queue that jumps straight to the next cycle
at which anything can change.  Its decisions are pinned to recorded
reference results: ``tests/golden/controller_decisions.json`` holds the
full :class:`SimResult` recorded from a per-cycle reference loop on seeded
workloads across all shipped policies, and
``tests/test_engine_equivalence.py`` requires every field to match.

Design
======

* **Flat bank state.**  All per-bank state lives in six plain Python
  lists local to the run loop, indexed ``die * banks_per_die + bank``:
  FSM code (0 idle, 1 activating, 2 active, 3 precharging), open row,
  next-ready cycle, ACT cycle, last column-op cycle, and last-activity
  cycle (the idle-close deadline base).  Every read and write is a
  plain index; nothing mirrors them.

* **Event skipping.**  When no command issues, the next interesting
  cycle is the minimum over bank deadlines (state transitions,
  tCCD/tRAS/tWR windows, idle-close deadlines), channel command/data
  bus free times, the next arrival, refresh deadlines, and the policy's
  activation window.  The bank term scans only the transient and open
  banks, a small subset even on a 128-bank part (the active-bank caps
  bound the open ones).

* **One channel-partitioned issue pass over per-event bookkeeping.**
  Within one cycle, whether a command issues on channel ``c`` depends
  only on ``c``'s buses, ``c``'s banks, and the active counts.  Every
  policy runs on this pass.  The queue (``RequestQueue``) keeps, per
  channel, arrival-ordered *ready* (bank open at the entry's row) and
  *waiting* lists -- one pair per die under DistR -- plus each bank's
  queued entries and hit count.  An arrival, a bank opening or closing,
  or a column command moves only that bank's entries, so an event costs
  work on the event, not on the queue.  FCFS policies read the ready
  list as it stands and hand ``act_candidates`` the oldest
  ``act_lookahead`` waiting requests.  For ``IRAwareDistR``, recognised
  by type, the order is the dies grouped by active-bank count, least
  loaded group first, merged by arrival within a group (the stable sort
  by die load); each channel's ready order and waiting head are cached
  until an entry moves or the grouping changes.  The engine hands
  ``act_candidates`` the first ``act_lookahead`` entries of that order
  (skipping DistR's re-sort while the grouping is the one the order
  was built under) and ranks channels for activation by their head's
  (die load, arrival).  A bank's hit count answers both "does a queued
  request still want this open row?" questions: before a PRE on a row
  mismatch and before an idle close.

* **Gated per-cycle blocks.**  Transient-bank sync runs only once the
  earliest transient ``rdy`` is reached, the refresh block only once the
  earliest refresh deadline is, and idle close only while some channel
  is still free and either a refresh is due, the state must shed, or a
  conservative-low close deadline has passed.  That deadline skips
  banks with queued hits (they cannot close idle) and is lowered when a
  bank's last hit issues.

* **Streaming workloads.**  The engine consumes any iterable of
  :class:`~repro.controller.request.ReadRequest` through one pull-ahead
  cursor.  A list or tuple is validated up front and can be run again;
  any other iterable (a lazy trace reader) is validated as it is pulled,
  which is what makes multi-million-request runs possible without
  holding the whole trace's request objects alive.  Such a stream is
  consumed by one run; a second run raises ``SimulationError``.

* **Bounded state tracking.**  ``SimResult.state_occupancy`` is a
  sparse histogram capped at ``SimConfig.max_tracked_states`` distinct
  states; cycles spent in states beyond the cap are counted in
  ``SimResult.states_dropped`` (and the ``sim.states.dropped`` metric)
  instead of growing memory without bound on long trace runs.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

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

#: one queue entry: (global arrival sequence number, flat bank index,
#: request).  Entries order by arrival.
_Entry = Tuple[int, int, ReadRequest]

#: dies grouped by equal active-bank count, least loaded group first
#: (see :func:`load_groups`).
_Groups = Tuple[Tuple[int, ...], ...]


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


def load_groups(counts: Tuple[int, ...]) -> _Groups:
    """Dies grouped by equal active-bank count, least loaded group first.

    DistR's priority order is a stable sort of the queue by the target
    die's load: the least loaded group's requests in arrival order, then
    the next group's, and so on.
    """
    by_load: Dict[int, List[int]] = {}
    for d, load in enumerate(counts):
        by_load.setdefault(load, []).append(d)
    return tuple(tuple(by_load[load]) for load in sorted(by_load))


class RequestQueue:
    """The controller's request queue, kept ready for scheduling.

    An entry is ``(seq, flat bank, request)`` with ``seq`` the global
    arrival number, so entries sort by arrival.  For every channel and
    *bucket* two seq-ordered lists hold the entries: ``ready`` (the
    target bank is open at the entry's row) and ``waiting`` (the rest).
    With ``per_die`` there is one bucket per die, which DistR merges by
    die load (:meth:`ready_order`, :meth:`waiting_head`); otherwise all
    dies of a channel share one bucket, already in arrival order.  Per
    bank, ``by_bank`` lists its entries and ``hits`` counts its ready
    ones; per channel, ``size`` and ``n_ready`` count entries.

    The caller reports every event that can move an entry between the
    lists -- arrival, a bank opening, a bank closing with ready entries,
    a column command -- and each costs work on that bank's entries only.
    """

    def __init__(
        self,
        num_channels: int,
        num_dies: int,
        banks_per_die: int,
        per_die: bool,
    ) -> None:
        self.banks_per_die = banks_per_die
        self.per_die = per_die
        self.ready: List[List[List[_Entry]]] = []
        self.waiting: List[List[List[_Entry]]] = []
        for _ in range(num_channels):
            if per_die:
                self.ready.append([[] for _ in range(num_dies)])
                self.waiting.append([[] for _ in range(num_dies)])
            else:
                self.ready.append([[]] * num_dies)
                self.waiting.append([[]] * num_dies)
        num_banks = num_dies * banks_per_die
        self.by_bank: List[List[_Entry]] = [[] for _ in range(num_banks)]
        self.hits: List[int] = [0] * num_banks
        self.size: List[int] = [0] * num_channels
        self.n_ready: List[int] = [0] * num_channels

    def push(self, c: int, entry: _Entry, open_row: int) -> bool:
        """Queue ``entry`` on channel ``c``; ``open_row`` is its bank's
        open row (-1 unless the bank is open).  Returns whether the
        entry is ready."""
        i = entry[1]
        req = entry[2]
        self.by_bank[i].append(entry)
        self.size[c] += 1
        if req.row == open_row:
            self.ready[c][req.die].append(entry)
            self.hits[i] += 1
            self.n_ready[c] += 1
            return True
        self.waiting[c][req.die].append(entry)
        return False

    def pop(self, c: int, entry: _Entry) -> int:
        """Remove a ready ``entry`` (its column command issued); returns
        the bank's remaining hit count."""
        i = entry[1]
        self.ready[c][entry[2].die].remove(entry)
        self.by_bank[i].remove(entry)
        self.size[c] -= 1
        self.n_ready[c] -= 1
        self.hits[i] -= 1
        return self.hits[i]

    def open_bank(self, c: int, i: int, row: int) -> int:
        """Bank ``i`` opened at ``row``: its entries for that row become
        ready.  Returns the bank's hit count."""
        d = i // self.banks_per_die
        ready = self.ready[c][d]
        waiting = self.waiting[c][d]
        k = 0
        for entry in self.by_bank[i]:
            if entry[2].row == row:
                waiting.remove(entry)
                insort(ready, entry)
                k += 1
        self.hits[i] = k
        self.n_ready[c] += k
        return k

    def close_bank(self, c: int, i: int, row: int) -> None:
        """Bank ``i``, open at ``row``, is precharging: its ready entries
        wait again."""
        d = i // self.banks_per_die
        ready = self.ready[c][d]
        waiting = self.waiting[c][d]
        for entry in self.by_bank[i]:
            if entry[2].row == row:
                ready.remove(entry)
                insort(waiting, entry)
        self.n_ready[c] -= self.hits[i]
        self.hits[i] = 0

    def ready_order(self, c: int, groups: _Groups) -> List[_Entry]:
        """Channel ``c``'s ready entries in priority order: by die group
        of ``groups`` (:func:`load_groups`), then by arrival.  Without
        ``per_die`` this is the live arrival-ordered list."""
        if not self.per_die:
            return self.ready[c][0]
        return _merge_groups(self.ready[c], groups, self.n_ready[c])

    def waiting_head(self, c: int, groups: _Groups, k: int) -> List[_Entry]:
        """The first ``k`` of channel ``c``'s waiting entries, in the
        order of :meth:`ready_order`."""
        if not self.per_die:
            return self.waiting[c][0][:k]
        return _merge_groups(self.waiting[c], groups, k)


def _merge_groups(
    buckets: List[List[_Entry]], groups: _Groups, k: int
) -> List[_Entry]:
    """The first ``k`` entries of per-die ``buckets`` taken group by
    group, merged by arrival within a group."""
    out: List[_Entry] = []
    for grp in groups:
        need = k - len(out)
        if need <= 0:
            break
        if len(grp) == 1:
            out += buckets[grp[0]][:need]
            continue
        part: List[_Entry] = []
        for d in grp:
            part += buckets[d][:need]
        part.sort()
        out += part[:need]
    return out


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
        self._requests: Optional[Sequence[ReadRequest]] = None
        self._stream: Optional[Iterator[ReadRequest]] = None
        if isinstance(workload, (list, tuple)):
            for req in workload:
                self._validate(req)
            self._total = len(workload)
            self._requests = workload
        else:
            self._stream = map(self._validate, workload)

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

    def _source(self) -> Iterator[ReadRequest]:
        """This run's request cursor: a fresh pass over a list or tuple,
        or the stream, which only one run can consume."""
        if self._requests is not None:
            return iter(self._requests)
        stream, self._stream = self._stream, None
        if stream is None:
            raise SimulationError(
                "the workload stream is consumed: an engine built on an "
                "iterator runs once; pass a list or tuple to run again"
            )
        return stream

    # -- public API ----------------------------------------------------------

    def run(self, max_cycles: int = 5_000_000) -> SimResult:
        """Simulate until the workload drains (or ``max_cycles``).

        The run executes inside a ``sim.run`` trace span (with
        ``engine="event"`` provenance) and pushes queue-depth,
        cycle-count, and command-mix metrics into the global registry.
        A list or tuple workload runs again from its start; a streamed
        one raises :class:`SimulationError` on a second run.
        """
        source = self._source()
        with span(
            "sim.run",
            policy=self.policy.name,
            requests=self._total,
            engine="event",
        ):
            result = self._run(source, max_cycles)
        _metrics.inc("sim.runs")
        _metrics.inc("sim.requests_completed", result.completed)
        _metrics.inc("sim.activations", result.activations)
        _metrics.observe("sim.mean_queue_depth", result.mean_queue_depth)
        _metrics.observe("sim.cycles", float(result.cycles))
        if result.states_dropped:
            _metrics.inc("sim.states.dropped", result.states_dropped)
        return result

    # -- main loop -----------------------------------------------------------

    def _run(self, source: Iterator[ReadRequest], max_cycles: int) -> SimResult:
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
        # After a column command a bank cannot close before this many
        # cycles (the idle window and tWR both restart at it).
        col_close = max(close_window, tWR)
        depth = cfg.queue_depth
        max_per_die = cfg.max_banks_per_die
        max_per_chan = cfg.max_banks_per_channel
        refresh_enabled = cfg.refresh_enabled
        chan_of_bank = [cfg.channel_of(b) for b in range(B)]
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
        # The stock act_candidates would return the FCFS window unchanged;
        # skipping the call matters at 16 channels.  DistR's stock one
        # re-sorts the window by the current counts, a no-op while the
        # dies' load grouping is the one the channel's order was built
        # under.
        own_window = type(policy).act_candidates is not ReadPolicy.act_candidates
        stock_distr = type(policy).act_candidates is IRAwareDistR.act_candidates
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
        ma_cache: Dict[Tuple[int, ...], List[Optional[bool]]] = {}

        # Flat per-bank state, indexed die * B + bank (module docstring).
        # Timestamps start far in the past, so no window binds at cycle 0.
        never = -(10**9)
        st = [0] * N
        rowv = [-1] * N
        rdy = [0] * N
        act = [never] * N
        col = [never] * N
        lact = [never] * N

        # Channel buses.
        cmd_free = [0] * C
        data_free = [0] * C

        # Workload cursor: one pulled-ahead request, None once drained.
        arrived = 0
        next_req = next(source, None)
        next_arrival = _FAR if next_req is None else next_req.arrival_cycle

        # Request queue, bucketed per (channel, die) under DistR and per
        # channel otherwise (see RequestQueue).
        queue = RequestQueue(C, D, B, per_die=balance)
        q_size = queue.size
        q_ready_n = queue.n_ready
        hits = queue.hits
        q_len = 0
        # Per channel, the ready order and the first act_lookahead
        # waiting entries, each with the load grouping it was built
        # under; None marks it stale.
        cache_ready: List[List[_Entry]] = [[] for _ in range(C)]
        ready_groups: List[Optional[_Groups]] = [None] * C
        cache_nr: List[List[_Entry]] = [[] for _ in range(C)]
        wait_groups: List[Optional[_Groups]] = [None] * C
        # counts -> load grouping, interned so that equal groupings are
        # one object and a cache check is an identity test.
        groups_of: Dict[Tuple[int, ...], _Groups] = {}
        interned: Dict[_Groups, _Groups] = {}

        def grouping(counts_t: Tuple[int, ...]) -> _Groups:
            g = groups_of.get(counts_t)
            if g is None:
                g = load_groups(counts_t)
                g = groups_of[counts_t] = interned.setdefault(g, g)
            return g

        # Incremental bookkeeping.
        counts = [0] * D  # is_active (ACTIVATING|ACTIVE) banks per die
        counts_t = tuple(counts)
        # FCFS policies keep the all-idle grouping throughout.
        groups = grouping(counts_t)
        nonidle = [0] * D  # banks not in IDLE (includes PRECHARGING)
        act_by_die_chan = [[0] * C for _ in range(D)]
        transient: Set[int] = set()  # banks in state 1 or 3
        trans_next = _FAR  # conservative-low min of transient rdy
        open_set: Set[int] = set()  # banks in state 2
        # Conservative-low idle-close deadline over open banks without
        # queued hits (a bank with hits only closes while shedding or for
        # refresh, which run the block anyway).
        min_close = _FAR
        used_mark = [0] * C  # used_mark[c] == gen: channel issued this cycle
        gen = 0

        next_refresh = [(d + 1) * tREFI // D for d in range(D)]
        refresh_next = min(next_refresh) if refresh_enabled else _FAR
        refresh_blocked_until = [0] * D
        no_refresh_due = [False] * D
        refresh_due = no_refresh_due

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
        # The caches above are keyed by counts; the last lookup of each
        # is reused while counts_t is the same object.
        mr_counts: Optional[Tuple[int, ...]] = None
        shed_counts: Optional[Tuple[int, ...]] = None
        ma_counts: Optional[Tuple[int, ...]] = None
        mr_val = True
        shedding = False
        ma_row: List[Optional[bool]] = []
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
                    i = next_req.die * B + b
                    c = chan_of_bank[b]
                    if queue.push(
                        c,
                        (arrived, i, next_req),
                        rowv[i] if st[i] == 2 else -1,
                    ):
                        ready_groups[c] = None
                    else:
                        wait_groups[c] = None
                    q_len += 1
                    arrived += 1
                    next_req = next(source, None)
                next_arrival = (
                    _FAR if next_req is None else next_req.arrival_cycle
                )

            # --- sync transient banks; occupancy accounting ----------------
            if now >= trans_next:
                nxt = _FAR
                for i in tuple(transient):
                    v = rdy[i]
                    if v > now:
                        if v < nxt:
                            nxt = v
                        continue
                    if st[i] == 1:
                        st[i] = 2
                        open_set.add(i)
                        c = chan_of_bank[i % B]
                        if queue.open_bank(c, i, rowv[i]):
                            ready_groups[c] = None
                            wait_groups[c] = None
                        else:
                            # No queued request wants the row (a policy's
                            # own act_candidates may name one that is not
                            # queued): the bank may close once idle.
                            dl = lact[i] + close_window
                            if dl < min_close:
                                min_close = dl
                    else:  # state 3: precharge finished
                        st[i] = 0
                        nonidle[i // B] -= 1
                    transient.discard(i)
                trans_next = nxt
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
            if now >= refresh_next:
                refresh_due = [now >= next_refresh[d] for d in range(D)]
                any_due = True
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
                                rdy[j] = blocked
                        next_refresh[d] += tREFI
                        refreshes += 1
                        issued_any = True
                refresh_next = min(next_refresh)
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
                    if mr_counts is not counts_t:
                        known = mr_cache.get(counts_t)
                        if known is None:
                            known = mr_cache[counts_t] = policy.may_read(
                                0, now, counts_t
                            )
                        mr_val = known
                        mr_counts = counts_t
                    reads_possible = mr_val
                else:
                    reads_possible = True
                p2: List[Tuple[int, int, int]] = []
                for c in range(C):
                    if not q_size[c] or used_mark[c] == gen or now < cmd_free[c]:
                        continue
                    issued_here = False
                    if reads_possible and q_ready_n[c]:
                        r_ok = now + tCL >= data_free[c]
                        w_ok = now + tCWL >= data_free[c]
                        if r_ok or w_ok:
                            if ready_groups[c] is not groups:
                                cache_ready[c] = queue.ready_order(c, groups)
                                ready_groups[c] = groups
                            for e in cache_ready[c]:
                                req = e[2]
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
                                if refresh_due[req.die]:
                                    continue
                                cmd_free[c] = now + 1
                                if req.is_write:
                                    end = now + tCWL + burst
                                    writes_n += 1
                                else:
                                    end = now + tCL + burst
                                    reads_n += 1
                                data_free[c] = end
                                col[i] = now
                                lact[i] = now
                                req.issue_cycle = now
                                req.complete_cycle = end
                                latency_sum += end - req.arrival_cycle
                                if not queue.pop(c, e):
                                    # The bank's last hit went out: it
                                    # may close once idle.
                                    dl = now + col_close
                                    v = act[i] + tRAS
                                    if v > dl:
                                        dl = v
                                    if dl < min_close:
                                        min_close = dl
                                if balance:
                                    # FCFS reads the live list pop
                                    # already updated.
                                    cache_ready[c].remove(e)
                                q_len -= 1
                                completed += 1
                                read_states.add(counts_t)
                                used_mark[c] = gen
                                used_n += 1
                                issued_any = True
                                issued_here = True
                                break
                    if not issued_here and q_ready_n[c] < q_size[c]:
                        if wait_groups[c] is not groups:
                            cache_nr[c] = queue.waiting_head(c, groups, lookahead)
                            wait_groups[c] = groups
                        head = cache_nr[c][0]
                        load = counts_t[head[2].die] if balance else 0
                        p2.append((load, head[0], c))
                # Pass 2: channels take turns by the rank of their
                # waiting list's head, (die load, arrival) under DistR and
                # plain arrival otherwise.  The policy picks the window
                # from the list's first act_lookahead entries under the
                # counts as they stand now.
                if p2:
                    if len(p2) > 1:
                        p2.sort()
                    act_ok = ma_kind != 1 or now >= act_window
                    for _, _, c in p2:
                        window = cache_nr[c]
                        if own_window and not (
                            stock_distr and wait_groups[c] is groups
                        ):
                            window = [
                                (0, r.die * B + r.bank, r)
                                for r in policy.act_candidates(
                                    [e[2] for e in window], counts_t
                                )
                            ]
                        for e in window:
                            req = e[2]
                            i = e[1]
                            d = req.die
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
                                    if ma_counts is not counts_t:
                                        ma_row = ma_cache.setdefault(
                                            counts_t, [None] * D
                                        )
                                        ma_counts = counts_t
                                    ok = ma_row[d]
                                    if ok is None:
                                        ok = ma_row[d] = policy.may_activate(
                                            d, now, counts_t
                                        )
                                    if not ok:
                                        continue
                                elif ma_kind == 0 and not policy.may_activate(
                                    d, now, counts_t
                                ):
                                    continue
                                st[i] = 1
                                rowv[i] = req.row
                                act[i] = now
                                rdy[i] = now + tRCD
                                lact[i] = now
                                transient.add(i)
                                if now + tRCD < trans_next:
                                    trans_next = now + tRCD
                                nonidle[d] += 1
                                counts[d] += 1
                                act_by_die_chan[d][c] += 1
                                counts_t = tuple(counts)
                                if balance:
                                    groups = grouping(counts_t)
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
                                if hits[i]:
                                    continue
                                st[i] = 3
                                rowv[i] = -1
                                rdy[i] = now + tRP
                                open_set.discard(i)
                                transient.add(i)
                                if now + tRP < trans_next:
                                    trans_next = now + tRP
                                counts[d] -= 1
                                act_by_die_chan[d][c] -= 1
                                counts_t = tuple(counts)
                                if balance:
                                    groups = grouping(counts_t)
                                cmd_free[c] = now + 1
                                precharges += 1
                                used_mark[c] = gen
                                used_n += 1
                                issued_any = True
                                break

            # --- idle close ("a few cycles" without reads) -----------------
            # Gated on a conservative-low deadline so quiescent cycles
            # skip the scan entirely; under a violating drift state the
            # IR-aware policies *shed* banks even if queued requests
            # still want their rows (window permitting).  Nothing can
            # close once every channel has issued this cycle.
            if open_set and used_n < C:
                if shed_counts is not counts_t:
                    known = shed_cache.get(counts_t)
                    if known is None:
                        known = shed_cache[counts_t] = policy.must_shed(counts_t)
                    shedding = known
                    shed_counts = counts_t
                if shedding or any_due or now >= min_close:
                    closed = False
                    for i in sorted(open_set):
                        if st[i] != 2:
                            continue
                        d = i // B
                        c = chan_of_bank[i % B]
                        if used_mark[c] == gen:
                            continue
                        force_close = refresh_due[d]
                        if not (force_close or now - lact[i] >= close_window):
                            continue
                        if now < act[i] + tRAS or now < col[i] + tWR:
                            continue
                        if hits[i] and not (shedding or force_close):
                            continue
                        if now < cmd_free[c]:
                            continue
                        if hits[i]:
                            queue.close_bank(c, i, rowv[i])
                            ready_groups[c] = None
                            wait_groups[c] = None
                        st[i] = 3
                        rowv[i] = -1
                        rdy[i] = now + tRP
                        open_set.discard(i)
                        transient.add(i)
                        if now + tRP < trans_next:
                            trans_next = now + tRP
                        counts[d] -= 1
                        act_by_die_chan[d][c] -= 1
                        cmd_free[c] = now + 1
                        precharges += 1
                        used_mark[c] = gen
                        used_n += 1
                        issued_any = True
                        closed = True
                    if closed:
                        counts_t = tuple(counts)
                        if balance:
                            groups = grouping(counts_t)
                    # Recompute the deadline floor for the skip gate: each
                    # open bank without queued hits cannot close before
                    # its window elapses AND tRAS/tWR are met (bus
                    # contention only delays further, and lact/col/act
                    # never move backward, so the min over these maxima
                    # stays a valid lower bound).  A bank whose last hit
                    # issues later lowers the floor then.
                    mn = _FAR
                    for i in open_set:
                        if hits[i]:
                            continue
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
