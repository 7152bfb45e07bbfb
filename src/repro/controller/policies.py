"""Read scheduling policies (paper section 5.2).

A policy answers two questions each cycle:

1. which waiting requests may be considered for a new activation, and
2. may a new bank activation issue on die ``d`` right now?

``StandardJEDEC`` answers (2) with the DDR3 tRRD/tFAW rules -- applied per
channel, because the standard controller treats the stack as one rank and
is "not aware of 3D stacking" (section 5.2).  The IR-drop-aware policies
answer it with the look-up table: activation is allowed whenever the
resulting memory state stays under the IR-drop constraint.

Requests are considered in arrival order, except under
``IRAwareDistR``: the engine recognises it by type and orders each
channel's queue by its target die's active-bank count, least loaded die
first and arrival order within equal loads (see
``repro.controller.engine``).  Either way a policy's
:meth:`ReadPolicy.act_candidates` sees the first ``act_lookahead``
waiting requests of that order.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import Deque, List, Sequence, Tuple

from repro.controller.lut import IRDropLUT
from repro.controller.request import ReadRequest
from repro.dram.timing import TimingParams
from repro.errors import ConfigurationError


class ReadPolicy(ABC):
    """Base class: activation window + admission."""

    name: str = "base"

    def reset(self) -> None:
        """Clear any per-run state (called once per simulation)."""

    @abstractmethod
    def may_activate(
        self, die: int, now: int, active_counts: Tuple[int, ...]
    ) -> bool:
        """May an ACT issue on ``die`` at ``now`` given current counts?

        ``active_counts`` counts banks that are active *before* the new
        activation.
        """

    def on_activate(self, die: int, now: int) -> None:
        """Notification that an ACT issued (for window bookkeeping)."""

    def may_read(self, die: int, now: int, active_counts: Tuple[int, ...]) -> bool:
        """May a READ issue in the current state?  The paper's condition
        (3) applies to every request sent to memory, so an IR-aware
        controller holds reads while the state violates the constraint
        (e.g. after banks elsewhere closed and raised this die's I/O
        share).  The standard policy is IR-blind and always reads."""
        return True

    #: how many waiting requests the activation stage may consider per
    #: channel per cycle.  The controller issues opportunistic READs to
    #: open rows out of order, but row activations follow the policy's
    #: priority with only this much lookahead, so inadmissible
    #: high-priority requests partially block the activation slot.
    act_lookahead: int = 4

    def act_candidates(
        self,
        non_ready: Sequence[ReadRequest],
        active_counts: Tuple[int, ...],
    ) -> List[ReadRequest]:
        """Waiting requests considered for a new activation this cycle,
        best first.

        ``non_ready`` is the first ``act_lookahead`` of one channel's
        waiting requests in the engine's priority order: the oldest for
        FCFS policies, the least loaded dies' oldest for DistR.  The
        default keeps them as given."""
        return list(non_ready[: self.act_lookahead])

    def must_shed(self, active_counts: Tuple[int, ...]) -> bool:
        """Should the controller close banks to leave a violating state?
        Escape hatch for states reached by drift (bank closures elsewhere
        raising the surviving dies' I/O activity)."""
        return False

class StandardJEDEC(ReadPolicy):
    """JEDEC DDR3 standard policy: tRRD + tFAW, FCFS order.

    The paper compares against "JEDEC DDR3 standard policy with a tRRD of
    8 and a tFAW of 32".  Both windows are enforced across the whole
    channel (the controller sees one rank and cannot exploit 3D die-level
    parallelism -- precisely its weakness).
    """

    name = "standard"
    #: a plain JEDEC controller reorders far less aggressively than the
    #: paper's smart IR-aware queue.
    act_lookahead: int = 2

    def __init__(self, timing: TimingParams) -> None:
        self.timing = timing
        self._last_act: int = -(10**9)
        self._act_history: Deque[int] = deque()

    def reset(self) -> None:
        self._last_act = -(10**9)
        self._act_history.clear()

    def may_activate(
        self, die: int, now: int, active_counts: Tuple[int, ...]
    ) -> bool:
        if now < self._last_act + self.timing.tRRD:
            return False
        # Four-activate window: at most 4 ACTs in any tFAW span.
        while self._act_history and self._act_history[0] <= now - self.timing.tFAW:
            self._act_history.popleft()
        return len(self._act_history) < 4

    def on_activate(self, die: int, now: int) -> None:
        self._last_act = now
        self._act_history.append(now)

    def earliest_activate(self, now: int) -> int:
        """Earliest cycle an ACT could become legal (event-skip helper)."""
        candidates = [self._last_act + self.timing.tRRD]
        if len(self._act_history) >= 4:
            candidates.append(self._act_history[-4] + self.timing.tFAW)
        return max(max(candidates), now)


class IRAwareFCFS(ReadPolicy):
    """IR-drop-aware policy, first-come-first-served order.

    Activation is admitted iff the post-activation memory state's IR drop
    (from the R-Mesh look-up table) meets the constraint.
    """

    name = "ir_fcfs"

    def __init__(self, lut: IRDropLUT, constraint_mv: float) -> None:
        if constraint_mv <= 0.0:
            raise ConfigurationError("IR-drop constraint must be positive")
        self.lut = lut
        self.constraint_mv = constraint_mv

    def may_activate(
        self, die: int, now: int, active_counts: Tuple[int, ...]
    ) -> bool:
        new_counts = tuple(
            c + 1 if d == die else c for d, c in enumerate(active_counts)
        )
        if max(new_counts) > self.lut.max_banks_per_die:
            return False
        return self.lut.allows(new_counts, self.constraint_mv)

    def may_read(self, die: int, now: int, active_counts: Tuple[int, ...]) -> bool:
        return self.lut.allows(active_counts, self.constraint_mv)

    def must_shed(self, active_counts: Tuple[int, ...]) -> bool:
        return sum(active_counts) > 0 and not self.lut.allows(
            active_counts, self.constraint_mv
        )

class IRAwareDistR(IRAwareFCFS):
    """IR-drop-aware distributed-read policy.

    "The read request, whose target die has the least number of active
    banks, has the highest priority" (section 5.2): balancing reads across
    dies raises die-level parallelism under the same IR-drop constraint.
    """

    name = "ir_distr"

    def act_candidates(
        self,
        non_ready: Sequence[ReadRequest],
        active_counts: Tuple[int, ...],
    ) -> List[ReadRequest]:
        """Distributed read: the first ``act_lookahead`` requests of
        ``non_ready``, re-sorted by the current active counts (stable, so
        arrival order breaks ties within a die-load class).

        The engine passes the first ``act_lookahead`` entries of the
        channel's whole waiting list ordered by die load (the engine's
        cached order), so the window holds the requests on the
        least-loaded dies drawn from the entire channel queue -- not a
        re-sort of the oldest few.  A young request to an idle die
        therefore activates ahead of older requests to loaded dies,
        however many of those are queued.  The re-sort only matters when
        an earlier channel's ACT or PRE in the same cycle has changed the
        dies' load grouping; otherwise the engine skips this call."""
        window = list(non_ready[: self.act_lookahead])
        return sorted(window, key=lambda r: active_counts[r.die])
