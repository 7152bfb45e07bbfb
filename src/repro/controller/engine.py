"""Event-driven memory controller core.

This is the only controller engine: every experiment, ``repro3d sim``
and the benchmarks run it.  It implements the *decision logic* of
the paper's controller (section 2.3) -- per-bank FSMs, one command per
channel per cycle, tRRD/tFAW or IR-LUT admission -- with flat per-bank
state lists and an event queue that jumps straight to the next cycle
at which anything can change; within a cycle it evaluates only the
channels that can act.  Its decisions are pinned to recorded
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
  cycle (the idle-close deadline base).  Every read and write is a plain
  index; nothing mirrors them.

* **Event skipping.**  When no command issues, the next interesting
  cycle is the minimum over bank deadlines (state transitions,
  tCCD/tRAS/tWR windows, idle-close deadlines), channel command/data bus
  free times, the next arrival, refresh deadlines, and the policy's
  activation window.  Transient banks sit in a heap by ``rdy``; the bank
  term scans only the open banks, a small subset even on a 128-bank part
  (the active-bank caps bound them).

* **One channel-partitioned issue pass over per-event bookkeeping.**
  Within one cycle, whether a command issues on channel ``c`` depends
  only on ``c``'s buses, ``c``'s banks, the active counts and the
  policy's activation window.  Every policy runs on this pass; which
  channels it evaluates is the next bullet's concern.  The queue
  (``RequestQueue``) keeps, per channel, arrival-ordered *ready* (bank
  open at the entry's row) and *waiting* lists -- one pair per die under
  DistR -- plus each bank's queued entries and hit count.  An arrival, a
  bank opening or closing, or a column command moves only that bank's
  entries, so an event costs work on the event, not on the queue.  FCFS
  policies read the ready list as it stands and take the oldest
  ``act_lookahead`` waiting requests as the activation window.  For
  ``IRAwareDistR`` the order is the dies grouped by active-bank count,
  least loaded group first, merged by arrival within a group (the stable
  sort by die load); each channel's ready order and waiting head are
  cached until an entry moves or the grouping changes.  An arrival, the
  newest entry, is placed into a cached order rather than invalidating
  it, and a ready order left stale by a regrouping alone is re-sorted
  in place.  The window is
  the first ``act_lookahead`` entries of that order, stably re-sorted by
  die load only once the grouping is no longer the one the order was
  built under, and channels rank for activation by their head's (die
  load, arrival).  A bank's
  hit count answers both "does a queued request still want this open
  row?" questions: before a PRE on a row mismatch and before an idle
  close.

* **Channel waits.**  A channel whose evaluation issued nothing is not
  evaluated again until something that blocked it can have changed.
  Pass 1 (column commands) and pass 2 (ACT/PRE) each keep a wake cycle per
  channel: the earliest cycle at which a time block the evaluation met
  can lift -- bank or bus busy (``rdy``, tCCD, the data bus, ACT or PRE
  transit), tRAS/tWR, StandardJEDEC's tRRD/tFAW window (only an ACT
  moves it, and only later), a refresh blackout's tRFC.  Shared-state
  blocks are named waits instead: the IR-LUT read hold, and an IR-LUT
  ACT denial or a die cap on die ``d`` (a channel cap lifts only on the
  channel's own PRE, which marks it).  An arrival, a bank opening or
  closing, a column command that takes a bank's last hit, or a change of
  the dies due for refresh marks a channel due.  An ACT or PRE re-checks
  the waits on its counts -- for the dies with waiters only, and only in
  the admission caches, so the LUT is asked what it would be asked if
  every channel were evaluated every cycle -- and gives a lifted waiter
  a pass-2 turn: later in the same pass if it ranks behind the channel
  that issued, else at the next pass 2.  Such a turn is skipped if, by
  then, every wait the channel met still holds.  Pass-2 ranks and order
  are those of a full evaluation, so every decision is too.  The waits
  need more than one channel: a single-channel part has its channel
  evaluated every cycle.  ``sim.channel_scans`` counts pass-1 read scans
  plus pass-2 window examinations.

* **Three policies, one admission path.**  The engine serves exactly
  ``StandardJEDEC`` (tRRD/tFAW through ``earliest_activate``, IR-blind),
  ``IRAwareFCFS`` and ``IRAwareDistR`` (``may_read``, ``may_activate``
  and ``must_shed`` kept per active-count state).  Any other policy,
  or a subclass that overrides one of their admission hooks, is
  rejected with :class:`~repro.errors.ConfigurationError` when the
  engine is built, as is an IR-drop LUT for a different die count.
  Subclasses that only observe (``reset``, ``on_activate``) run.

* **One record per visited state.**  Each active-count state the run
  visits is one interned record (``_State``): its load grouping, the
  policy's answers, links to the states one ACT or PRE away, whether a
  read or command issued in it, and its occupancy, charged once per run
  of the state rather than per visited cycle.  An ACT or PRE follows a
  link instead of building and hashing a counts tuple.

* **Gated per-cycle blocks.**  Transient-bank sync runs only once the
  earliest transient ``rdy`` is reached, the refresh block only once the
  earliest refresh deadline is, and idle close only while some channel
  is still free and either a refresh is due, the state must shed, or a
  conservative-low close deadline has passed.  That deadline skips banks
  with queued hits (they cannot close idle) and is lowered when a bank's
  last hit issues.

* **Streaming workloads.**  The engine consumes any iterable of
  :class:`~repro.controller.request.ReadRequest` through one pull-ahead
  cursor.  A list or tuple is validated up front and can be run again;
  any other iterable (a lazy trace reader) is validated as it is pulled,
  which is what makes multi-million-request runs possible without
  holding the whole trace's request objects alive.  Such a stream is
  consumed by one run; a second run raises ``SimulationError``.

* **Bounded state tracking.**  ``SimResult.state_occupancy`` is a sparse
  histogram capped at ``SimConfig.max_tracked_states`` distinct states;
  cycles spent in states beyond the cap are counted in
  ``SimResult.states_dropped`` (and the ``sim.states.dropped`` metric)
  instead of growing memory without bound on long trace runs."""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from heapq import heappop, heappush
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
from repro.errors import (
    ConfigurationError,
    RequestRangeError,
    SimulationError,
)
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

    def __post_init__(self) -> None:
        for name in (
            "num_dies",
            "banks_per_die",
            "num_channels",
            "queue_depth",
            "max_banks_per_die",
        ):
            value = getattr(self, name)
            if value < 1:
                raise ConfigurationError(
                    f"SimConfig.{name} must be at least 1, got {value}"
                )
        cap = self.max_banks_per_channel
        if cap is not None and cap < 1:
            raise ConfigurationError(
                f"SimConfig.max_banks_per_channel must be at least 1 when "
                f"set, got {cap}"
            )
        if self.close_window < 0:
            raise ConfigurationError(
                f"SimConfig.close_window must be at least 0, got "
                f"{self.close_window}"
            )

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


class _State:
    """One visited active-count state, interned per run.

    It holds what the engine asks of a state -- its load grouping, the
    policy's ``may_read``, ``may_activate`` row and ``must_shed``
    answers (None until first asked) -- its neighbours one bank up or
    down on each die, once visited, whether a read or a command issued
    in it (the states the reported max IR covers), and its occupancy."""

    __slots__ = (
        "counts",
        "groups",
        "may_read",
        "may_act",
        "shed",
        "up",
        "down",
        "read",
        "command",
        "cycles",
    )

    def __init__(
        self, counts: Tuple[int, ...], groups: _Groups, reads_free: bool
    ) -> None:
        self.counts = counts
        self.groups = groups
        self.may_read: Optional[bool] = True if reads_free else None
        self.may_act: List[Optional[bool]] = [None] * len(counts)
        self.shed: Optional[bool] = None
        self.up: List[Optional[_State]] = [None] * len(counts)
        self.down: List[Optional[_State]] = [None] * len(counts)
        self.read = False
        self.command = False
        #: occupancy charged so far (the histogram is built at the end).
        self.cycles = 0


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
        if len(grp) == 1:
            out += buckets[grp[0]][: k - len(out)]
        else:
            part: List[_Entry] = []
            for d in grp:
                part += buckets[d][:k]
            part.sort()
            out += part[: k - len(out)]
        if len(out) >= k:
            break
    return out


#: The pass-2 turn of a single-channel part, which ranks against no one.
_SOLE_TURN = (0, 0, 0)

#: The policies the engine serves, most derived first.
_POLICIES = (IRAwareDistR, IRAwareFCFS, StandardJEDEC)

#: Scheduling hooks the engine answers from its own caches and windows,
#: never through a subclass.  A class that resolves one differently from
#: its stock policy is rejected; a hook the stock policy lacks counts as
#: overridden once defined.
_FIXED_HOOKS = ("may_read", "may_activate", "act_candidates")


def _check_policy(policy: ReadPolicy) -> None:
    """Raise :class:`ConfigurationError` unless ``policy`` is one of
    the three policies, with its admission hooks as shipped.  Subclasses
    that only observe (``reset``, ``on_activate``) pass."""
    cls = type(policy)
    stock = next((k for k in _POLICIES if isinstance(policy, k)), None)
    if stock is None:
        raise ConfigurationError(
            f"{cls.__name__} is not a controller policy: the engine "
            f"serves StandardJEDEC, IRAwareFCFS and IRAwareDistR"
        )
    for hook in _FIXED_HOOKS:
        if getattr(cls, hook, None) is not getattr(stock, hook, None):
            raise ConfigurationError(
                f"{cls.__name__} overrides {hook}: the engine schedules "
                f"{stock.__name__} by its own rules and would ignore it"
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
        _check_policy(policy)
        for lut in (getattr(policy, "lut", None), report_lut):
            if lut is not None and lut.num_dies != config.num_dies:
                raise ConfigurationError(
                    f"the IR-drop LUT is for {lut.num_dies} dies, the "
                    f"simulated stack has {config.num_dies}"
                )
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
            # Validated as the run pulls it.
            self._stream = iter(workload)

    def _validate(self, req: ReadRequest) -> ReadRequest:
        cfg = self.config
        if not (0 <= req.die < cfg.num_dies):
            raise RequestRangeError(
                f"request {req.req_id}: die {req.die} out of range"
            )
        if not (0 <= req.bank < cfg.banks_per_die):
            raise RequestRangeError(
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
        # A column command can issue once now + this reaches the data
        # bus's free time (reads need tCL, writes tCWL).
        col_lat = max(tCL, tCWL)
        depth = cfg.queue_depth
        max_per_die = cfg.max_banks_per_die
        max_per_chan = cfg.max_banks_per_channel
        refresh_enabled = cfg.refresh_enabled
        chan_of_bank = [cfg.channel_of(b) for b in range(B)]
        # One of the three policies (_check_policy).  StandardJEDEC always
        # reads and admits an ACT by act_window alone; the IR-aware ones
        # answer may_read and may_activate from the active counts (and
        # the die, for an ACT), so the answers are kept per state.
        std_policy = policy if isinstance(policy, StandardJEDEC) else None
        ir_policy = policy if isinstance(policy, IRAwareFCFS) else None
        # DistR ranks waiting requests by their die's active-bank count.
        balance = isinstance(policy, IRAwareDistR)
        # Earliest cycle the JEDEC tRRD/tFAW windows admit an ACT.  Only
        # on_activate moves the windows, so this is recomputed once per
        # ACT instead of every scheduling iteration.
        act_window = 0
        lookahead = policy.act_lookahead
        # Channel waits (module docstring).  A single channel is
        # evaluated every iteration: there the waits' bookkeeping costs
        # more than the evaluations it saves.
        skip = C > 1

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
        # A request is validated as it is pulled.
        arrived = 0
        next_req = next(source, None)
        if next_req is None:
            next_arrival = _FAR
        else:
            next_arrival = next_req.arrival_cycle
            if not (0 <= next_req.die < D and 0 <= next_req.bank < B):
                self._validate(next_req)

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

        # Visited states (_State), interned by counts; equal groupings
        # are one object, so that a cache check is an identity test.
        # FCFS policies keep the all-idle grouping throughout.
        states: Dict[Tuple[int, ...], _State] = {}
        idle_groups = load_groups((0,) * D)
        interned: Dict[_Groups, _Groups] = {idle_groups: idle_groups}
        reads_free = ir_policy is None

        def visit(counts_t: Tuple[int, ...]) -> _State:
            s = states.get(counts_t)
            if s is None:
                g = load_groups(counts_t) if balance else idle_groups
                s = states[counts_t] = _State(
                    counts_t, interned.setdefault(g, g), reads_free
                )
            return s

        def moved(s: _State, d: int, delta: int) -> _State:
            """The state one bank up (``delta`` 1) or down (-1) on die
            ``d`` from ``s``, linked for the next time."""
            counts_l = list(s.counts)
            counts_l[d] += delta
            n = visit(tuple(counts_l))
            (s.up if delta > 0 else s.down)[d] = n
            return n

        # Incremental bookkeeping.
        counts = [0] * D  # is_active (ACTIVATING|ACTIVE) banks per die
        cur = visit(tuple(counts))
        groups = cur.groups
        nonidle = [0] * D  # banks not in IDLE (includes PRECHARGING)
        act_by_die_chan = [[0] * C for _ in range(D)]
        # Banks in state 1 or 3 as (rdy, bank), a heap: a transient bank's
        # rdy never moves (refresh waits for its die to be idle).
        transient: List[Tuple[int, int]] = []
        trans_next = _FAR  # min of transient rdy
        open_banks: List[int] = []  # banks in state 2, ascending
        # Conservative-low idle-close deadline over open banks without
        # queued hits (a bank with hits only closes while shedding or for
        # refresh, which run the block anyway).
        min_close = _FAR
        used_mark = [0] * C  # used_mark[c] == gen: channel issued this cycle
        gen = 0

        # Channel waits (module docstring).  Pass 1 evaluates channel c
        # once now reaches wake1[c]; c takes a pass-2 turn once now
        # reaches wake2[c].  An evaluation that issues nothing sets its
        # wake to the earliest cycle a time block it met can lift (bank
        # or bus busy, tRAS/tWR, tRRD/tFAW, refresh blackout) and enters
        # the channel in the set of each shared-state block it met
        # (below).  An event on the channel marks the pass it can change
        # (wake = now); a lifted shared-state block gives the channel a
        # pass-2 turn.
        wake1 = [0] * C
        wake2 = [0] * C
        # Pass-2 shared-state waits, one set of channels per code:
        # IR-LUT denial on die d (code d), may_activate(d, counts) must
        # turn true; die cap on die d (code D + d), counts[d] must fall.
        waits: List[Set[int]] = [set() for _ in range(2 * D)]
        lut_wait = waits[:D]
        cap_wait = waits[D:]
        # The codes of the waits each channel met at its last turn.
        regs: List[List[int]] = [[] for _ in range(C)]
        # Pass 1's shared-state wait, IR-LUT read hold: may_read(counts)
        # must turn true.
        read_wait: Set[int] = set()
        # Channels with a lifted die-cap or IR-LUT wait whose pass-2 turn
        # is due at the next pass 2.
        pending: Set[int] = set()
        # DistR: the channel's window is the first act_lookahead of more
        # waiting entries, so it depends on the load grouping it was
        # built under (wait_groups[c]).
        grp_dep = [False] * C
        in_p2 = [0] * C  # in_p2[c] == gen: c takes a turn in this pass 2
        done2 = [0] * C  # done2[c] == gen: c has taken it
        # lazy[c] == gen: c takes its turn for a lifted wait only, and
        # is examined only if one of its waits (regs[c]) has lifted by
        # then.
        lazy = [0] * C
        scans = 0

        def release(s: _State, fell: int, now: int) -> List[int]:
            """After an ACT or PRE: the channels whose die-cap (``fell``,
            the die whose count fell, or -1) or IR-LUT waits the state
            ``s`` can have lifted.  Read holds the state can have lifted
            are marked here.  Admission is re-checked, for the dies with
            waiters only, in the state's answers: one the policy was
            never asked lifts the wait, and the waiter's turn asks, so
            the LUT sees the lookups it would see if every channel were
            evaluated every iteration."""
            lifted: List[int] = []
            if fell >= 0 and cap_wait[fell]:
                lifted += cap_wait[fell]
                cap_wait[fell].clear()
            if ir_policy is not None:
                row = s.may_act
                for d in range(D):
                    ws = lut_wait[d]
                    if ws and row[d] is not False:
                        lifted += ws
                        ws.clear()
            if read_wait and s.may_read is not False:
                for x in read_wait:
                    wake1[x] = now
                read_wait.clear()
            return lifted

        def late_rank(
            x: int,
            now: int,
            gen: int,
            groups_p1: _Groups,
            counts_p1: Tuple[int, ...],
        ) -> Optional[Tuple[int, int, int]]:
            """Pass-2 rank of channel ``x``, not evaluated at pass 1,
            as pass 1 would have ranked it; None when it cannot take a
            turn."""
            if used_mark[x] == gen or now < cmd_free[x]:
                return None
            if q_ready_n[x] >= q_size[x]:
                return None
            if wait_groups[x] is not groups_p1:
                cache_nr[x] = queue.waiting_head(x, groups_p1, lookahead)
                wait_groups[x] = groups_p1
            head = cache_nr[x][0]
            return (counts_p1[head[2].die] if balance else 0, head[0], x)

        next_refresh = [(d + 1) * tREFI // D for d in range(D)]
        refresh_next = min(next_refresh) if refresh_enabled else _FAR
        refresh_blocked_until = [0] * D
        blocked_last = 0  # the latest refresh_blocked_until
        no_refresh_due = [False] * D
        refresh_due = no_refresh_due
        # Per die, the refresh blackout an ACT meets: _FAR while a
        # refresh is due, else the end of the last one's tRFC.
        act_block = [0] * D

        occ_cycles = 0
        completed = 0
        activations = 0
        precharges = 0
        refreshes = 0
        reads_n = 0
        writes_n = 0
        latency_sum = 0
        now = 0
        prev_now = 0
        # Occupancy is charged once per run of one state: each visited
        # cycle's gap since the previous one goes to the state the
        # previous one started in.  States enter the histogram in the
        # order they were first charged.
        run_state: Optional[_State] = None
        run_start = 0
        charged: List[_State] = []

        while True:
            if next_req is None and completed >= arrived:
                break
            if now >= max_cycles:
                break

            # --- arrivals (stall when the queue is full) -------------------
            while next_arrival <= now and q_len < depth:
                req = next_req
                b = req.bank
                d = req.die
                i = d * B + b
                c = chan_of_bank[b]
                entry = (arrived, i, req)
                if queue.push(c, entry, rowv[i] if st[i] == 2 else -1):
                    wake1[c] = now
                    if ready_groups[c] is not groups:
                        ready_groups[c] = None
                    elif balance:
                        # The cached order stays valid: the entry, the
                        # newest, goes after every entry of a die loaded
                        # no more than its own.  (FCFS reads the live
                        # list, which already holds it.)
                        order = cache_ready[c]
                        load = counts[d]
                        j = len(order)
                        while j and counts[order[j - 1][2].die] > load:
                            j -= 1
                        order.insert(j, entry)
                else:
                    wake2[c] = now
                    if wait_groups[c] is not groups:
                        wait_groups[c] = None
                    else:
                        # Likewise for the waiting head, which keeps
                        # only its first act_lookahead entries.
                        head = cache_nr[c]
                        j = len(head)
                        if balance:
                            load = counts[d]
                            while j and counts[head[j - 1][2].die] > load:
                                j -= 1
                        if j < lookahead:
                            head.insert(j, entry)
                            del head[lookahead:]
                q_len += 1
                arrived += 1
                next_req = next(source, None)
                if next_req is None:
                    next_arrival = _FAR
                else:
                    next_arrival = next_req.arrival_cycle
                    if not (0 <= next_req.die < D and 0 <= next_req.bank < B):
                        self._validate(next_req)

            # --- sync transient banks; occupancy accounting ----------------
            if now >= trans_next:
                while transient and transient[0][0] <= now:
                    i = heappop(transient)[1]
                    if st[i] == 1:
                        st[i] = 2
                        insort(open_banks, i)
                        c = chan_of_bank[i % B]
                        # The ACT was for a queued request, so the row
                        # has at least one hit.
                        queue.open_bank(c, i, rowv[i])
                        ready_groups[c] = None
                        wait_groups[c] = None
                        wake1[c] = wake2[c] = now
                    else:  # state 3: precharge finished
                        st[i] = 0
                        nonidle[i // B] -= 1
                trans_next = transient[0][0] if transient else _FAR
            occ_cycles += q_len * (now - prev_now)
            prev_now = now
            if cur is not run_state:
                if run_state is not None:
                    if not run_state.cycles:
                        charged.append(run_state)
                    run_state.cycles += now - run_start
                run_state = cur
                run_start = now

            issued_any = False
            gen += 1
            used_n = 0

            # --- refresh (per die, staggered deadlines) --------------------
            if now >= refresh_next:
                due = [now >= next_refresh[d] for d in range(D)]
                if due != refresh_due:
                    # Refresh blackout starts or ends on some die.
                    wake1[:] = wake2[:] = [now] * C
                refresh_due = due
                any_due = True
                for d in range(D):
                    if not refresh_due[d] or nonidle[d]:
                        continue
                    c0 = chan_of_bank[0]
                    if used_mark[c0] != gen and now >= cmd_free[c0]:
                        cmd_free[c0] = now + 1
                        used_mark[c0] = gen
                        used_n += 1
                        blocked_last = now + tRFC
                        refresh_blocked_until[d] = blocked_last
                        base = d * B
                        for j in range(base, base + B):
                            if rdy[j] < blocked_last:
                                rdy[j] = blocked_last
                        next_refresh[d] += tREFI
                        refreshes += 1
                        issued_any = True
                refresh_next = min(next_refresh)
                for d in range(D):
                    act_block[d] = _FAR if due[d] else refresh_blocked_until[d]
            else:
                if refresh_due is not no_refresh_due:
                    if any(refresh_due):
                        wake1[:] = wake2[:] = [now] * C
                    refresh_due = no_refresh_due
                    act_block[:] = refresh_blocked_until
                any_due = False

            # --- issue phase -----------------------------------------------
            # Pass 1: opportunistic column commands to open rows, in
            # policy order.  Pass 2: per free channel, one activation
            # candidate chosen by the policy may ACT, or PRE its bank on
            # a row mismatch.  Only channels whose wake1 or wake2 has come
            # are evaluated (see the channel waits above).
            if q_len:
                reads_possible = cur.may_read
                if reads_possible is None:
                    assert ir_policy is not None  # reads_free otherwise
                    reads_possible = cur.may_read = ir_policy.may_read(
                        0, now, cur.counts
                    )
                p2: List[Tuple[int, int, int]] = []
                counts_p1 = cur.counts
                groups_p1 = groups
                for c in range(C):
                    if skip:
                        due1 = wake1[c] <= now
                        due2 = wake2[c] <= now or (
                            grp_dep[c] and wait_groups[c] is not groups
                        )
                        if not (due1 or due2):
                            continue
                    else:
                        due1 = due2 = True
                    if not q_size[c]:
                        wake1[c] = wake2[c] = _FAR  # an arrival marks it
                        continue
                    if used_mark[c] == gen:
                        continue
                    if now < cmd_free[c]:
                        if due1:
                            wake1[c] = cmd_free[c]
                        if due2:
                            wake2[c] = cmd_free[c]
                        continue
                    if due1:
                        scans += 1
                        if skip:
                            read_wait.discard(c)
                    w = _FAR
                    issued_here = False
                    if due1 and q_ready_n[c]:
                        df = data_free[c]
                        if not reads_possible:
                            # IR-LUT read hold.
                            if skip:
                                read_wait.add(c)
                        elif now + col_lat < df:
                            # Data bus busy for reads and writes alike.
                            w = df - col_lat
                        else:
                            built = ready_groups[c]
                            if built is not groups:
                                if built is None:
                                    cache_ready[c] = queue.ready_order(c, groups)
                                elif len(cache_ready[c]) > 1:
                                    # Same entries, another grouping:
                                    # by die load, then arrival.
                                    cache_ready[c].sort(
                                        key=lambda e, n=counts: (n[e[2].die], e[0])
                                    )
                                ready_groups[c] = groups
                            r_ok = now + tCL >= df
                            w_ok = now + tCWL >= df
                            for e in cache_ready[c]:
                                req = e[2]
                                i = e[1]
                                # A ready entry's bank is open, so its
                                # rdy has passed.
                                if now < col[i] + tCCD or not (
                                    w_ok if req.is_write else r_ok
                                ):
                                    if skip:
                                        # Bank or bus busy: tCCD, the data
                                        # bus for this direction.
                                        v = col[i] + tCCD
                                        t = df - (tCWL if req.is_write else tCL)
                                        if t > v:
                                            v = t
                                        if v < w:
                                            w = v
                                    continue
                                if refresh_due[req.die]:
                                    # Refresh blackout: its end marks
                                    # every channel.
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
                                    # may close once idle, and a waiting
                                    # entry may PRE it.
                                    if queue.by_bank[i]:
                                        wake2[c] = now
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
                                cur.read = True
                                used_mark[c] = gen
                                used_n += 1
                                issued_any = True
                                issued_here = True
                                break
                    if issued_here:
                        if skip:
                            # The next column command waits for the data
                            # bus.
                            v = data_free[c] - col_lat
                            wake1[c] = v if v > now else now
                        continue
                    if skip and due1:
                        wake1[c] = w
                    if due2:
                        if q_ready_n[c] < q_size[c]:
                            if wait_groups[c] is not groups:
                                cache_nr[c] = queue.waiting_head(
                                    c, groups, lookahead
                                )
                                wait_groups[c] = groups
                            if skip:
                                e = cache_nr[c][0]
                                load = counts[e[2].die] if balance else 0
                                p2.append((load, e[0], c))
                                in_p2[c] = gen
                                if balance:
                                    grp_dep[c] = (
                                        q_size[c] - q_ready_n[c] > lookahead
                                    )
                            else:
                                # One channel: no rank to compare.
                                p2.append(_SOLE_TURN)
                        elif skip:
                            wake2[c] = _FAR  # a waiting entry marks it
                # Pass 2: channels take turns by the rank of their
                # waiting list's head, (die load, arrival) under DistR and
                # plain arrival otherwise, both as they stood at pass 1.
                # The policy picks the window from the list's first
                # act_lookahead entries under the counts as they stand
                # now.  A channel not evaluated at pass 1 takes a turn
                # when a die-cap or IR-LUT wait of its has lifted: since
                # the last pass 2 (pending), or by an ACT or PRE ahead of
                # it in this one.
                act_ok = std_policy is None or now >= act_window
                w = _FAR  # a turn's wake2 (channel waits only)
                if pending:
                    for x in list(pending):
                        if in_p2[x] != gen:
                            rank = late_rank(x, now, gen, groups_p1, counts_p1)
                            if rank is not None:
                                p2.append(rank)
                                in_p2[x] = gen
                                lazy[x] = gen
                            elif q_ready_n[x] < q_size[x]:
                                continue  # busy this cycle: keep it pending
                        pending.discard(x)
                if p2:
                    if len(p2) > 1:
                        p2.sort()
                    # A lifted channel inserted while the turns run ranks
                    # behind the current one, so the iteration meets it.
                    for turn in p2:
                        c = turn[2]
                        if skip:
                            done2[c] = gen
                            if lazy[c] == gen:
                                row = cur.may_act
                                for code in regs[c]:
                                    if code < D:
                                        if row[code] is not False:
                                            break
                                    elif counts[code - D] < max_per_die:
                                        break
                                else:
                                    # Every wait c met at its last turn
                                    # still holds: a command ahead of it
                                    # blocked the die again.
                                    for code in regs[c]:
                                        waits[code].add(c)
                                    continue
                            if regs[c]:
                                for code in regs[c]:
                                    waits[code].discard(c)
                                regs[c].clear()
                        scans += 1
                        window = cache_nr[c]
                        if balance and wait_groups[c] is not groups:
                            # DistR: the window re-sorted (stably) by the
                            # counts now.
                            window = sorted(
                                window, key=lambda e, n=counts: n[e[2].die]
                            )
                        if skip:
                            w = wake2[c]
                            if w <= now:
                                w = _FAR
                        fell = -1
                        for e in window:
                            req = e[2]
                            i = e[1]
                            d = req.die
                            fsm = st[i]
                            if fsm == 0 and now >= rdy[i]:
                                if not act_ok:
                                    # tRRD/tFAW: lifts at act_window.
                                    if skip and act_window < w:
                                        w = act_window
                                    continue
                                if counts[d] >= max_per_die:
                                    # Die cap.
                                    if skip:
                                        cap_wait[d].add(c)
                                        regs[c].append(D + d)
                                    continue
                                if (
                                    max_per_chan is not None
                                    and act_by_die_chan[d][c] >= max_per_chan
                                ):
                                    # Channel cap: only this channel's
                                    # own PRE lifts it, and marks it.
                                    continue
                                if now < act_block[d]:
                                    # Refresh blackout: tRFC ends at
                                    # refresh_blocked_until; a change of
                                    # refresh_due marks every channel.
                                    if skip:
                                        v = refresh_blocked_until[d]
                                        if now < v < w:
                                            w = v
                                    continue
                                if ir_policy is not None:
                                    ma_row = cur.may_act
                                    ok = ma_row[d]
                                    if ok is None:
                                        ok = ma_row[d] = ir_policy.may_activate(
                                            d, now, cur.counts
                                        )
                                    if not ok:
                                        # IR-LUT denial.
                                        if skip:
                                            lut_wait[d].add(c)
                                            regs[c].append(d)
                                        continue
                                st[i] = 1
                                rowv[i] = req.row
                                act[i] = now
                                rdy[i] = now + tRCD
                                lact[i] = now
                                heappush(transient, (now + tRCD, i))
                                if now + tRCD < trans_next:
                                    trans_next = now + tRCD
                                nonidle[d] += 1
                                counts[d] += 1
                                act_by_die_chan[d][c] += 1
                                cur = cur.up[d] or moved(cur, d, 1)
                                cur.command = True
                                policy.on_activate(d, now)
                                if std_policy is not None:
                                    act_window = std_policy.earliest_activate(
                                        now
                                    )
                                    act_ok = False  # tRRD re-armed at now
                                activations += 1
                                break
                            if fsm == 2 and rowv[i] != req.row:
                                v = act[i] + tRAS
                                t = col[i] + tWR
                                if t > v:
                                    v = t
                                if now < v:
                                    # Bank busy: tRAS / tWR.
                                    if skip and v < w:
                                        w = v
                                    continue
                                if hits[i]:
                                    # Queued hits hold the row; this
                                    # channel's own reads lift it.
                                    continue
                                st[i] = 3
                                rowv[i] = -1
                                rdy[i] = now + tRP
                                open_banks.remove(i)
                                heappush(transient, (now + tRP, i))
                                if now + tRP < trans_next:
                                    trans_next = now + tRP
                                counts[d] -= 1
                                act_by_die_chan[d][c] -= 1
                                cur = cur.down[d] or moved(cur, d, -1)
                                precharges += 1
                                fell = d
                                break
                            # Bank busy: in ACT/PRE transit, or held by
                            # a refresh.
                            if skip:
                                v = rdy[i]
                                if now < v < w:
                                    w = v
                        else:
                            if skip:
                                wake2[c] = w
                            continue
                        # An ACT or PRE issued on c.
                        if balance:
                            groups = cur.groups
                        cmd_free[c] = now + 1
                        used_mark[c] = gen
                        used_n += 1
                        issued_any = True
                        wake2[c] = now
                        if not skip:
                            continue
                        for x in release(cur, fell, now):
                            if in_p2[x] == gen:
                                # Its turn is still to come, or it comes
                                # at the next pass 2.
                                if done2[x] == gen:
                                    pending.add(x)
                                continue
                            rank = late_rank(x, now, gen, groups_p1, counts_p1)
                            if rank is not None and rank > turn:
                                insort(p2, rank)
                                in_p2[x] = gen
                                lazy[x] = gen
                            else:
                                pending.add(x)

            # --- idle close ("a few cycles" without reads) -----------------
            # Gated on a conservative-low deadline so quiescent cycles
            # skip the scan entirely; under a violating drift state the
            # IR-aware policies *shed* banks even if queued requests
            # still want their rows (window permitting).  Nothing can
            # close once every channel has issued this cycle.
            if open_banks and used_n < C:
                shedding = cur.shed
                if shedding is None:
                    shedding = cur.shed = policy.must_shed(cur.counts)
                if shedding or any_due or now >= min_close:
                    closed = False
                    # The same pass recomputes the deadline floor for the
                    # gate over the banks left open: each one without
                    # queued hits cannot close before its window elapses
                    # AND tRAS/tWR are met (bus contention only delays
                    # further, and lact/col/act never move backward, so
                    # the min over these maxima stays a valid lower
                    # bound).  A bank whose last hit issues later lowers
                    # the floor then.
                    mn = _FAR
                    for i in open_banks[:]:
                        h = hits[i]
                        d = i // B
                        force_close = refresh_due[d]
                        if h and not (shedding or force_close):
                            continue
                        # Earliest close: tRAS and tWR met, and the idle
                        # window elapsed unless a refresh forces it.
                        dl = act[i] + tRAS
                        v = col[i] + tWR
                        if v > dl:
                            dl = v
                        if not force_close:
                            v = lact[i] + close_window
                            if v > dl:
                                dl = v
                        if now >= dl:
                            c = chan_of_bank[i % B]
                            if used_mark[c] != gen and now >= cmd_free[c]:
                                if h:
                                    queue.close_bank(c, i, rowv[i])
                                    ready_groups[c] = None
                                    wait_groups[c] = None
                                st[i] = 3
                                rowv[i] = -1
                                rdy[i] = now + tRP
                                open_banks.remove(i)
                                heappush(transient, (now + tRP, i))
                                if now + tRP < trans_next:
                                    trans_next = now + tRP
                                counts[d] -= 1
                                act_by_die_chan[d][c] -= 1
                                cur = cur.down[d] or moved(cur, d, -1)
                                cmd_free[c] = now + 1
                                precharges += 1
                                used_mark[c] = gen
                                used_n += 1
                                issued_any = True
                                closed = True
                                wake2[c] = now
                                if skip and cap_wait[d]:
                                    pending.update(cap_wait[d])
                                    cap_wait[d].clear()
                                continue
                        if h:
                            continue
                        if force_close:
                            v = lact[i] + close_window
                            if v > dl:
                                dl = v
                        if dl < mn:
                            mn = dl
                    min_close = mn
                    if closed:
                        if balance:
                            groups = cur.groups
                        if skip:
                            pending.update(release(cur, -1, now))

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
            if now < trans_next < best:
                best = trans_next
            for i in open_banks:
                # An open bank's rdy has passed (it opened at rdy, and a
                # refresh waits for its die to be idle).
                v = col[i] + tCCD
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
                # refresh_next is the min of next_refresh, and
                # blocked_last the max of refresh_blocked_until.
                if now < refresh_next:
                    if refresh_next < best:
                        best = refresh_next
                else:
                    for v in next_refresh:
                        if now < v < best:
                            best = v
                if now < blocked_last:
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
        if run_state is not None and now > run_start:
            if not run_state.cycles:
                charged.append(run_state)
            run_state.cycles += now - run_start
        occ = OccupancyAccumulator(cfg.max_tracked_states)
        for s in charged:
            occ.add(s.counts, s.cycles)
        _metrics.inc("sim.channel_scans", scans)

        finished = next_req is None and completed >= arrived
        cycles = now
        # Every visited cycle's gap was charged: prev_now in all.
        occ_samples = prev_now
        max_ir = self._max_visited_ir(
            {s.counts for s in states.values() if s.read or s.command}
        )
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
